// Discrete-event model of one Gilgamesh II chip's two execution modalities.
//
// Paper §3.2: "the architecture is heterogeneous with two computing
// structures designed to operate best at the two modalities of operation
// determined by degree of temporal locality.  At high temporal locality ...
// a streaming architecture based on dataflow control ... At low (or no)
// temporal locality ... an advanced Processor in Memory architecture called
// MIND ... short latencies and very high memory bandwidth with in-memory
// threads."
//
// The model (FIG-1 experiment): tasks carry (flops, operand bytes, temporal
// locality in [0,1]).
//   * Dataflow accelerator: enormous aggregate FLOP rate, but operands must
//     be staged through a bandwidth-limited channel; reuse (temporal
//     locality) is captured in local registers, so the staged volume is
//     bytes*(1-locality).  Staging and compute pipeline across tasks.
//   * MIND array: many in-memory nodes; each task's time is the max of its
//     compute time and its local-memory streaming time — locality does not
//     matter because the memory *is* local.
// A placement policy maps tasks to units; the adaptive policy uses the
// temporal-locality threshold, which is exactly Figure 1's design argument.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace px::gilgamesh {

struct chip_model_params {
  // Scaled-down chip (simulating all 512 nodes is possible but slow in
  // fine-grained sweeps; ratios follow the design point).
  unsigned mind_nodes = 64;
  double mind_flops_per_ns = 2.0;       // per node
  double mind_bytes_per_ns = 8.0;       // per node, local PIM bandwidth
  double mind_task_overhead_ns = 50.0;  // thread instantiation at a node

  double accel_flops_per_ns = 512.0;    // aggregate streaming rate
  double staging_bytes_per_ns = 64.0;   // channel into accelerator memory
  double accel_task_overhead_ns = 20.0; // stream reconfiguration
};

struct task_spec {
  double flops = 0.0;
  double bytes = 0.0;
  double temporal_locality = 0.0;  // fraction of operand reuse, [0,1]
};

enum class placement_policy {
  mind_only,
  accel_only,
  adaptive,  // locality >= threshold -> accelerator, else MIND
};

struct modality_result {
  double makespan_ns = 0.0;
  double accel_busy_ns = 0.0;      // accelerator compute occupancy
  double staging_busy_ns = 0.0;    // staging channel occupancy
  double mind_busy_ns = 0.0;       // summed across nodes
  double accel_utilization = 0.0;  // busy / makespan
  double mind_utilization = 0.0;   // busy / (makespan * nodes)
  std::uint64_t tasks_on_accel = 0;
  std::uint64_t tasks_on_mind = 0;
  double throughput_gflops = 0.0;  // total flops / makespan
};

class chip_model {
 public:
  explicit chip_model(chip_model_params params = {});

  // Runs the task set to completion under `policy`; deterministic.
  modality_result run(const std::vector<task_spec>& tasks,
                      placement_policy policy,
                      double locality_threshold = 0.5) const;

  const chip_model_params& params() const noexcept { return params_; }

 private:
  chip_model_params params_;
};

// Workload generator for the modality sweep: `n` tasks with the given mean
// temporal locality (clamped beta-like spread), fixed flops/bytes shape.
std::vector<task_spec> make_locality_workload(std::size_t n,
                                              double mean_locality,
                                              double flops_per_task,
                                              double bytes_per_task,
                                              std::uint64_t seed);

}  // namespace px::gilgamesh
