#include "gilgamesh/machine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace px::gilgamesh {

chip_model::chip_model(chip_model_params params) : params_(params) {
  PX_ASSERT(params_.mind_nodes >= 1);
}

modality_result chip_model::run(const std::vector<task_spec>& tasks,
                                placement_policy policy,
                                double locality_threshold) const {
  sim::engine eng;
  // Stage-and-compute pipeline for the accelerator; a node pool for MIND.
  sim::resource staging(eng, 1);
  sim::resource accel(eng, 1);
  sim::resource mind(eng, params_.mind_nodes);

  modality_result res;
  double total_flops = 0.0;

  for (const auto& task : tasks) {
    total_flops += task.flops;
    const bool to_accel =
        policy == placement_policy::accel_only ||
        (policy == placement_policy::adaptive &&
         task.temporal_locality >= locality_threshold);

    if (to_accel) {
      res.tasks_on_accel += 1;
      const double staged_bytes =
          task.bytes * std::max(0.0, 1.0 - task.temporal_locality);
      const auto stage_time = static_cast<sim::time_ps>(
          (staged_bytes / params_.staging_bytes_per_ns) * sim::ns);
      const auto compute_time = static_cast<sim::time_ps>(
          (task.flops / params_.accel_flops_per_ns +
           params_.accel_task_overhead_ns) *
          sim::ns);
      // Percolation-style pipeline: staging for task k+1 overlaps compute
      // for task k; the accelerator itself never waits on a remote fetch.
      eng.schedule_after(0, [&staging, &accel, stage_time, compute_time] {
        staging.use(stage_time, [&accel, compute_time] {
          accel.use(compute_time, [] {});
        });
      });
    } else {
      res.tasks_on_mind += 1;
      // In-memory thread: max of compute and local streaming; temporal
      // locality is irrelevant to a processor living in its memory.
      const double busy_ns =
          std::max(task.flops / params_.mind_flops_per_ns,
                   task.bytes / params_.mind_bytes_per_ns) +
          params_.mind_task_overhead_ns;
      const auto service = static_cast<sim::time_ps>(busy_ns * sim::ns);
      eng.schedule_after(0, [&mind, service] { mind.use(service, [] {}); });
    }
  }

  eng.run();

  const double makespan_ns =
      static_cast<double>(eng.now()) / static_cast<double>(sim::ns);
  res.makespan_ns = makespan_ns;
  res.accel_busy_ns =
      static_cast<double>(accel.busy_time()) / static_cast<double>(sim::ns);
  res.staging_busy_ns =
      static_cast<double>(staging.busy_time()) / static_cast<double>(sim::ns);
  res.mind_busy_ns =
      static_cast<double>(mind.busy_time()) / static_cast<double>(sim::ns);
  if (makespan_ns > 0.0) {
    res.accel_utilization = res.accel_busy_ns / makespan_ns;
    res.mind_utilization =
        res.mind_busy_ns / (makespan_ns * params_.mind_nodes);
    res.throughput_gflops = total_flops / makespan_ns;  // flops/ns == GFLOPS
  }
  return res;
}

std::vector<task_spec> make_locality_workload(std::size_t n,
                                              double mean_locality,
                                              double flops_per_task,
                                              double bytes_per_task,
                                              std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  std::vector<task_spec> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    task_spec t;
    t.flops = flops_per_task * rng.uniform(0.5, 1.5);
    t.bytes = bytes_per_task * rng.uniform(0.5, 1.5);
    // Locality spread of +/-0.2 around the mean, clamped to [0,1].
    t.temporal_locality =
        std::clamp(mean_locality + rng.uniform(-0.2, 0.2), 0.0, 1.0);
    tasks.push_back(t);
  }
  return tasks;
}

}  // namespace px::gilgamesh
