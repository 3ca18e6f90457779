// Doc-consistency suite: the reference pages under docs/ cannot rot.
//
// Two invariants, both checked against the *live* runtime rather than a
// hand-maintained list:
//
//   * every counter path the introspection registry actually exposes
//     appears in docs/counters.md (per-locality paths normalized to the
//     documented loc<i> placeholder), so the counter reference always
//     matches the schema the code registers;
//   * every knob in util::config::known_knobs() is documented in
//     docs/counters.md AND is accepted by the environment-loading path
//     (the PR 3 underscore-normalization bug class), and — the reverse
//     direction — every PX_* token the doc mentions is either a known knob
//     or an explicitly allowlisted bench-harness variable, so the doc
//     cannot drift ahead of the code either.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "core/runtime.hpp"
#include "util/config.hpp"

namespace {

using namespace px;

std::string read_doc(const std::string& rel) {
  const std::string path = std::string(PX_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// runtime/loc3/sched/ready_depth -> runtime/loc<i>/sched/ready_depth
std::string normalize_locality(const std::string& path) {
  static const std::regex loc_re("loc[0-9]+");
  return std::regex_replace(path, loc_re, "loc<i>");
}

TEST(Docs, EveryLiveCounterPathIsDocumented) {
  const std::string doc = read_doc("docs/counters.md");
  ASSERT_FALSE(doc.empty());

  core::runtime_params p;
  p.localities = 2;
  p.workers_per_locality = 1;
  core::runtime rt(p);  // counters register at construction; no start()

  const auto counters = rt.introspection().list("runtime");
  ASSERT_GT(counters.size(), 20u);
  std::set<std::string> missing;
  for (const auto& c : counters) {
    const std::string normalized = normalize_locality(c.path);
    if (doc.find(normalized) == std::string::npos) {
      missing.insert(normalized);
    }
  }
  EXPECT_TRUE(missing.empty())
      << "live counter paths absent from docs/counters.md:\n  "
      << [&] {
           std::string out;
           for (const auto& m : missing) out += m + "\n  ";
           return out;
         }();
}

TEST(Docs, EveryKnownKnobIsDocumentedAndAccepted) {
  const std::string doc = read_doc("docs/counters.md");
  const auto knobs = util::config::known_knobs();
  ASSERT_GT(knobs.size(), 10u);

  for (const auto& k : knobs) {
    EXPECT_NE(doc.find(k.env), std::string::npos)
        << k.env << " (" << k.key << ") is not documented in "
        << "docs/counters.md";

    // Accepted-by-config check: set the variable, reload the environment,
    // and demand the documented dotted key resolves to it.  This is the
    // regression net for the underscore-flattening lookup bug PR 3 fixed.
    const char* old = std::getenv(k.env.c_str());
    const std::string saved = old != nullptr ? old : "";
    ASSERT_EQ(setenv(k.env.c_str(), "probe-value", 1), 0);
    util::config cfg;
    cfg.load_environment();
    EXPECT_TRUE(cfg.contains(k.key))
        << k.env << " did not surface as config key \"" << k.key << "\"";
    EXPECT_EQ(cfg.get_string(k.key, ""), "probe-value") << k.key;
    if (old != nullptr) {
      setenv(k.env.c_str(), saved.c_str(), 1);
    } else {
      unsetenv(k.env.c_str());
    }
  }
}

TEST(Docs, NoUndocumentedKnobTokensInCountersDoc) {
  const std::string doc = read_doc("docs/counters.md");
  std::set<std::string> known;
  for (const auto& k : util::config::known_knobs()) known.insert(k.env);
  // Bench/test-harness variables documented for completeness but resolved
  // by the bench drivers and launchers, not by util::config.
  for (const char* extra :
       {"PX_BENCH_SMOKE", "PX_BENCH_NET", "PX_BENCH_DIST"}) {
    known.insert(extra);
  }

  const std::regex env_re("PX_[A-Z0-9_]+");
  std::set<std::string> unknown;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), env_re);
       it != std::sregex_iterator(); ++it) {
    const std::string tok = it->str();
    if (known.count(tok) == 0) unknown.insert(tok);
  }
  EXPECT_TRUE(unknown.empty())
      << "docs/counters.md mentions PX_* variables the runtime does not "
         "declare in util::config::known_knobs():\n  "
      << [&] {
           std::string out;
           for (const auto& u : unknown) out += u + "\n  ";
           return out;
         }();
}

// The reference pages exist and README links into each of them.
TEST(Docs, ReferenceTreeExistsAndIsLinkedFromReadme) {
  const std::string readme = read_doc("README.md");
  for (const char* page :
       {"docs/architecture.md", "docs/agas.md", "docs/wire-protocol.md",
        "docs/counters.md", "docs/telemetry.md", "docs/resilience.md"}) {
    EXPECT_FALSE(read_doc(page).empty()) << page;
    EXPECT_NE(readme.find(page), std::string::npos)
        << "README.md does not link " << page;
  }
}

}  // namespace
