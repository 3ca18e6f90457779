// Typed actions: the bridge from C++ functions to parcels.
//
// An action is a registered free function invocable through the global name
// space.  `apply<&fn>(dest, args...)` ships a parcel whose arrival spawns a
// ParalleX thread running fn(args...) at the destination's locality —
// moving the work to the data.  `async<&fn>` additionally creates a future
// LCO at the caller and attaches it as the parcel's *continuation
// specifier*, so the result flows back (or onward) without the caller ever
// blocking the execution site.
//
// Registration is lazy and race-free (magic statics); because all
// localities share one program image, an action_id minted at first use is
// valid everywhere before any parcel carrying it can arrive.
#pragma once

#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "core/locality.hpp"
#include "core/runtime.hpp"
#include "lco/lco.hpp"
#include "parcel/action_registry.hpp"
#include "util/serialize.hpp"

namespace px::core {

namespace detail {

template <typename>
struct function_traits;

template <typename R, typename... As>
struct function_traits<R (*)(As...)> {
  using result_type = R;
  using args_tuple = std::tuple<std::decay_t<As>...>;
};

}  // namespace detail

// The built-in continuation target: fires a single-shot LCO sink at the
// destination locality (future write-ends, gate openers, ...).
parcel::action_id sink_action_id();

// Sends an action result onward through a parcel's continuation specifier
// (no-op when the parcel carried none).  The raw-registered control-plane
// handlers (px.agas_update / px.query_counter) reply
// inline on the delivery thread through this instead of the typed-action
// machinery.
inline void send_continuation_reply(locality& from,
                                    const parcel::continuation& cont,
                                    std::vector<std::byte> args) {
  if (!cont.valid()) return;
  parcel::parcel done;
  done.destination = cont.target;
  done.action = cont.action;
  done.arguments = std::move(args);
  from.send(std::move(done));
}

template <auto Fn>
struct action {
  using traits = detail::function_traits<decltype(Fn)>;
  using result_type = typename traits::result_type;
  using args_tuple = typename traits::args_tuple;

  // Stable id; registers on first use under an automatic unique name.
  static parcel::action_id id() { return ensure_registered(nullptr); }

  // Optional: register under a human-readable name (must run before any
  // id() call for this Fn; see PX_REGISTER_ACTION).
  static parcel::action_id ensure_registered(const char* name) {
    static const parcel::action_id the_id = do_register(name);
    return the_id;
  }

 private:
  static parcel::action_id do_register(const char* name) {
    std::string reg_name =
        name != nullptr ? std::string(name)
                        : std::string("auto.") + typeid(action).name();
    // &invoke is a plain function pointer: dispatch for typed actions is
    // the registry's non-allocating fast path (no std::function erasure).
    return parcel::action_registry::global().register_action(
        std::move(reg_name), &invoke);
  }

  static void invoke(void* ctx, const parcel::parcel_view& pv) {
    auto* loc = static_cast<locality*>(ctx);
    // Zero-copy argument decode: the typed tuple is materialized straight
    // from the wire bytes here, before the view's backing frame is
    // recycled; nothing else of the parcel is copied.
    args_tuple args = util::from_bytes<args_tuple>(pv.arguments());
    const parcel::continuation cont = pv.cont();
    // Message-driven execution: the parcel's arrival *is* the thread
    // creation event (paper: parcels let execution sites operate via a
    // work-queue model).
    loc->spawn([loc, cont, args = std::move(args)]() mutable {
      if constexpr (std::is_void_v<result_type>) {
        std::apply(Fn, std::move(args));
        if (cont.valid()) {
          parcel::parcel done;
          done.destination = cont.target;
          done.action = cont.action;
          loc->send(std::move(done));
        }
      } else {
        result_type result = std::apply(Fn, std::move(args));
        if (cont.valid()) {
          parcel::parcel done;
          done.destination = cont.target;
          done.action = cont.action;
          done.arguments = util::to_bytes(result);
          loc->send(std::move(done));
        }
      }
    });
  }
};

// Registers fn eagerly under a readable name at static-init time.  The
// function may be namespace-qualified; the registration variable name is
// generated from __COUNTER__.
#define PX_DETAIL_CONCAT2(a, b) a##b
#define PX_DETAIL_CONCAT(a, b) PX_DETAIL_CONCAT2(a, b)
#define PX_REGISTER_ACTION_AS(fn, name)                            \
  namespace {                                                      \
  [[maybe_unused]] const ::px::parcel::action_id PX_DETAIL_CONCAT( \
      px_action_registration_, __COUNTER__) =                      \
      ::px::core::action<&fn>::ensure_registered(name);            \
  }
#define PX_REGISTER_ACTION(fn) PX_REGISTER_ACTION_AS(fn, #fn)

// ------------------------------------------------------------------ apply

// Fire-and-forget: run Fn(args...) where `dest` lives.  `from` is the
// sending locality (use the this_locality() overloads inside threads).
template <auto Fn, typename... Args>
void apply_from(locality& from, gas::gid dest, Args&&... args) {
  using A = action<Fn>;
  parcel::parcel p;
  p.destination = dest;
  p.action = A::id();
  p.arguments =
      util::to_bytes(typename A::args_tuple(std::forward<Args>(args)...));
  from.send(std::move(p));
}

// Fire-and-forget with an explicit continuation: after Fn completes at the
// destination, its result is applied to (cont.target, cont.action) — the
// locus of control migrates onward instead of returning.
template <auto Fn, typename... Args>
void apply_cont_from(locality& from, gas::gid dest, parcel::continuation cont,
                     Args&&... args) {
  using A = action<Fn>;
  parcel::parcel p;
  p.destination = dest;
  p.action = A::id();
  p.cont = cont;
  p.arguments =
      util::to_bytes(typename A::args_tuple(std::forward<Args>(args)...));
  from.send(std::move(p));
}

// -------------------------------------------------------------- sinks

// Registers a single-shot sink that satisfies `prom` when the continuation
// parcel arrives; returns the sink's continuation specifier.
template <typename R>
parcel::continuation make_promise_sink(locality& at, lco::promise<R> prom) {
  gas::gid sink = at.register_sink([prom](parcel::parcel p) mutable {
    if constexpr (std::is_void_v<R>) {
      (void)p;
      prom.set_value();
    } else {
      prom.set_value(util::from_bytes<R>(p.arguments));
    }
  });
  return parcel::continuation{sink, sink_action_id()};
}

// ------------------------------------------------------------------ async

// Split-phase remote invocation: returns immediately with a future the
// destination's completion parcel will satisfy.
template <auto Fn, typename... Args>
auto async_from(locality& from, gas::gid dest, Args&&... args)
    -> lco::future<typename action<Fn>::result_type> {
  using R = typename action<Fn>::result_type;
  lco::promise<R> prom;
  auto fut = prom.get_future();
  apply_cont_from<Fn>(from, dest, make_promise_sink<R>(from, std::move(prom)),
                      std::forward<Args>(args)...);
  return fut;
}

// --------------------------------------- this-locality convenience forms

// Valid inside ParalleX threads (and parcel handlers), where the calling
// locality is implicit.
template <auto Fn, typename... Args>
void apply(gas::gid dest, Args&&... args) {
  locality* here = this_locality();
  PX_ASSERT_MSG(here != nullptr, "apply outside a ParalleX thread");
  apply_from<Fn>(*here, dest, std::forward<Args>(args)...);
}

template <auto Fn, typename... Args>
void apply_cont(gas::gid dest, parcel::continuation cont, Args&&... args) {
  locality* here = this_locality();
  PX_ASSERT_MSG(here != nullptr, "apply_cont outside a ParalleX thread");
  apply_cont_from<Fn>(*here, dest, cont, std::forward<Args>(args)...);
}

template <auto Fn, typename... Args>
auto async(gas::gid dest, Args&&... args) {
  locality* here = this_locality();
  PX_ASSERT_MSG(here != nullptr, "async outside a ParalleX thread");
  return async_from<Fn>(*here, dest, std::forward<Args>(args)...);
}

}  // namespace px::core
