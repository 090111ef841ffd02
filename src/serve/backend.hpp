// everest/serve/backend.hpp
//
// Execution backends of the serving layer. A Backend runs one *batch* — the
// concatenation of several requests' input records into streams — through
// the serving graph and returns the output streams. DfgBackend is the
// host-CPU path (the deterministic dfg executor); DeviceBackend fronts a
// ring of one or more simulated FPGA devices (a card, or a node's SR-IOV
// virtual functions): it charges each batch as one launch on the next
// healthy device in round-robin order (amortizing one kernel launch over the
// whole batch, surfacing injected device faults) and delegates the
// functional computation to an inner DfgBackend. The Server is the one
// failover loop: it retries a failed batch (landing on the ring's next
// device) and then moves down its backend list, so [DeviceBackend,
// DfgBackend] is "FPGA first, host CPU as the degraded fallback".
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "platform/xrt.hpp"
#include "resil/policy.hpp"
#include "runtime/dfg_executor.hpp"
#include "support/expected.hpp"

namespace everest::serve {

/// Runs batches against the serving graph. Implementations must be safe to
/// call from multiple dispatcher threads concurrently.
class Backend {
public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const std::string &name() const = 0;
  /// The dfg.input stream names every request must populate.
  [[nodiscard]] virtual const std::vector<std::string> &input_names() const = 0;

  /// Executes one batch: every input stream holds one record per request, in
  /// batch order; every output stream must come back with the same length
  /// and order.
  virtual support::Expected<std::map<std::string, runtime::Stream>> run_batch(
      const std::map<std::string, runtime::Stream> &inputs) = 0;
};

/// Host-CPU backend over execute_dfg. Construction validates that the graph
/// is servable: it must contain a dfg.graph with at least one dfg.input and
/// every dfg.node / dfg.fold callee must be registered. Fold-free graphs run
/// each batch as one concatenated stream; graphs with dfg.fold stages (a
/// fold collapses the stream, so concatenation would fuse requests) run per
/// request — one element at a time, outputs re-concatenated in batch order —
/// so batched and unbatched results stay byte-identical either way.
class DfgBackend final : public Backend {
public:
  static support::Expected<std::unique_ptr<DfgBackend>> create(
      std::shared_ptr<const ir::Module> graph,
      std::shared_ptr<const runtime::NodeRegistry> registry,
      runtime::DfgExecOptions options = {},
      obs::TraceRecorder *recorder = nullptr);

  [[nodiscard]] const std::string &name() const override { return name_; }
  [[nodiscard]] const std::vector<std::string> &input_names() const override {
    return input_names_;
  }

  support::Expected<std::map<std::string, runtime::Stream>> run_batch(
      const std::map<std::string, runtime::Stream> &inputs) override;

private:
  DfgBackend(std::shared_ptr<const ir::Module> graph,
             std::shared_ptr<const runtime::NodeRegistry> registry,
             runtime::DfgExecOptions options, obs::TraceRecorder *recorder,
             std::vector<std::string> input_names, bool has_fold)
      : graph_(std::move(graph)), registry_(std::move(registry)),
        options_(options), recorder_(recorder),
        input_names_(std::move(input_names)), has_fold_(has_fold) {}

  std::string name_ = "host-cpu";
  std::shared_ptr<const ir::Module> graph_;
  std::shared_ptr<const runtime::NodeRegistry> registry_;
  runtime::DfgExecOptions options_;
  obs::TraceRecorder *recorder_;
  std::vector<std::string> input_names_;
  bool has_fold_ = false;
};

/// FPGA backend over a ring of devices: one simulated kernel launch per
/// batch (this is where batching pays — launch and DMA overheads amortize
/// across the batch), functional results computed by the wrapped host
/// backend so batched, unbatched and any-device outputs stay byte-identical.
///
/// Launches rotate round-robin over the ring, skipping a device while its
/// circuit breaker is open; when every breaker is open the device whose
/// cooldown ends first is probed rather than the batch refused. Breakers run
/// on the ring clock (the latest of the ring's simulated device clocks), so
/// a skipped device's cooldown still elapses. A failed launch returns its
/// error code unchanged: the Server's retry lands on the next device. The
/// simulated clocks are not thread-safe, so launches and ring membership
/// changes serialize on one mutex — a device handed back by
/// remove_replica() has no launch in flight and may be destroyed at once.
class DeviceBackend final : public Backend {
public:
  /// `kernel` must already be loaded on `device`. `launch_deadline_us` is
  /// the per-launch watchdog passed to Device::run (< 0 disables). The
  /// backend is named after the device.
  static support::Expected<std::unique_ptr<DeviceBackend>> create(
      platform::Device *device, std::string kernel,
      std::unique_ptr<DfgBackend> compute, double launch_deadline_us = -1.0);
  /// A named ring over `devices` (at least one, `kernel` loaded on each).
  static support::Expected<std::unique_ptr<DeviceBackend>> create(
      std::string name, std::vector<platform::Device *> devices,
      std::string kernel, std::unique_ptr<DfgBackend> compute,
      double launch_deadline_us = -1.0);

  [[nodiscard]] const std::string &name() const override { return name_; }
  [[nodiscard]] const std::vector<std::string> &input_names() const override {
    return compute_->input_names();
  }

  support::Expected<std::map<std::string, runtime::Stream>> run_batch(
      const std::map<std::string, runtime::Stream> &inputs) override;

  /// Hot-plug: appends a device (kernel already loaded) with a closed
  /// breaker. The caller keeps ownership.
  void add_replica(platform::Device *device);
  /// Removes the most recently added device and returns it; fails rather
  /// than empty the ring.
  support::Expected<platform::Device *> remove_replica();
  [[nodiscard]] std::size_t replicas() const;

private:
  struct Replica {
    platform::Device *device;
    resil::CircuitBreaker breaker;
  };

  DeviceBackend(std::string name, std::vector<platform::Device *> devices,
                std::string kernel, std::unique_ptr<DfgBackend> compute,
                double launch_deadline_us);

  std::string kernel_;
  std::unique_ptr<DfgBackend> compute_;
  double launch_deadline_us_;
  std::string name_;
  mutable std::mutex launch_mu_;
  std::vector<Replica> ring_;  // guarded by launch_mu_
  std::size_t next_ = 0;       // round-robin cursor, guarded by launch_mu_
};

}  // namespace everest::serve
