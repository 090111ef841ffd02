#include "serve/backend.hpp"

#include <algorithm>

namespace everest::serve {

support::Expected<std::unique_ptr<DfgBackend>> DfgBackend::create(
    std::shared_ptr<const ir::Module> graph,
    std::shared_ptr<const runtime::NodeRegistry> registry,
    runtime::DfgExecOptions options, obs::TraceRecorder *recorder) {
  if (!graph) {
    return support::Error::invalid_argument("serve: null serving graph");
  }
  if (!registry) {
    return support::Error::invalid_argument("serve: null node registry");
  }
  const ir::Operation *dfg = nullptr;
  graph->walk([&](const ir::Operation &op) {
    if (dfg == nullptr && op.name() == "dfg.graph") dfg = &op;
  });
  if (dfg == nullptr || dfg->num_regions() == 0 || dfg->region(0).empty()) {
    return support::Error::invalid_argument(
        "serve: module contains no dfg.graph to serve");
  }
  std::vector<std::string> input_names;
  bool has_fold = false;
  support::Status bad = support::Status::ok();
  for (const ir::Operation &op : dfg->region(0).front().operations()) {
    if (op.name() == "dfg.input") {
      input_names.push_back(op.attr_string("name"));
    } else if (op.name() == "dfg.fold") {
      // A fold collapses the whole stream into one record, so the batch
      // cannot be run as one concatenated stream — run_batch executes fold
      // graphs per request instead (each request's fold starts from the
      // initial state and sees only that request's records).
      has_fold = true;
      std::string callee = op.attr_string("callee");
      if (registry->find_fold(callee) == nullptr) {
        bad = support::Error::not_found(
            "serve: dfg.fold callee '" + callee + "' is not registered");
      }
    } else if (op.name() == "dfg.node") {
      std::string callee = op.attr_string("callee");
      if (registry->find_node(callee) == nullptr) {
        bad = support::Error::not_found(
            "serve: dfg.node callee '" + callee + "' is not registered");
      }
    }
  }
  if (!bad.is_ok()) return bad.error();
  if (input_names.empty()) {
    return support::Error::invalid_argument(
        "serve: serving graph declares no dfg.input streams");
  }
  return std::unique_ptr<DfgBackend>(
      new DfgBackend(std::move(graph), std::move(registry), options, recorder,
                     std::move(input_names), has_fold));
}

support::Expected<std::map<std::string, runtime::Stream>> DfgBackend::run_batch(
    const std::map<std::string, runtime::Stream> &inputs) {
  if (!has_fold_) {
    return runtime::execute_dfg(*graph_, *registry_, inputs, options_,
                                /*stats=*/nullptr, recorder_);
  }
  // Fold graphs: batching as one concatenated stream would fuse the
  // requests' data into a single fold state. Execute per request instead —
  // slice one record per input stream, run the graph, and concatenate the
  // per-request outputs back into batch-ordered streams. Each request's
  // input streams hold exactly one record, so every per-request output
  // stream has length one and the batch contract (same length and order as
  // the inputs) is preserved.
  std::size_t batch = 0;
  for (const auto &[name, stream] : inputs) {
    (void)name;
    batch = std::max(batch, stream.size());
  }
  std::map<std::string, runtime::Stream> outputs;
  for (std::size_t b = 0; b < batch; ++b) {
    std::map<std::string, runtime::Stream> slice;
    for (const auto &[name, stream] : inputs) {
      if (b >= stream.size()) {
        return support::Error::invalid_argument(
            "serve: ragged batch — input stream '" + name + "' has " +
            std::to_string(stream.size()) + " records, batch needs " +
            std::to_string(batch));
      }
      slice[name] = runtime::Stream{stream[b]};
    }
    auto result = runtime::execute_dfg(*graph_, *registry_, slice, options_,
                                       /*stats=*/nullptr, recorder_);
    if (!result) {
      return result.error().with_context("serve: fold graph, batch element " +
                                         std::to_string(b));
    }
    for (auto &[name, stream] : *result) {
      auto &out = outputs[name];
      out.insert(out.end(), stream.begin(), stream.end());
    }
  }
  return outputs;
}

DeviceBackend::DeviceBackend(std::string name,
                             std::vector<platform::Device *> devices,
                             std::string kernel,
                             std::unique_ptr<DfgBackend> compute,
                             double launch_deadline_us)
    : kernel_(std::move(kernel)), compute_(std::move(compute)),
      launch_deadline_us_(launch_deadline_us), name_(std::move(name)) {
  ring_.reserve(devices.size());
  for (platform::Device *device : devices) ring_.push_back({device, {}});
}

support::Expected<std::unique_ptr<DeviceBackend>> DeviceBackend::create(
    platform::Device *device, std::string kernel,
    std::unique_ptr<DfgBackend> compute, double launch_deadline_us) {
  if (device == nullptr) {
    return support::Error::invalid_argument("serve: null device");
  }
  return create(device->spec().name, {device}, std::move(kernel),
                std::move(compute), launch_deadline_us);
}

support::Expected<std::unique_ptr<DeviceBackend>> DeviceBackend::create(
    std::string name, std::vector<platform::Device *> devices,
    std::string kernel, std::unique_ptr<DfgBackend> compute,
    double launch_deadline_us) {
  if (devices.empty()) {
    return support::Error::invalid_argument(
        "serve: DeviceBackend needs at least one device");
  }
  for (const platform::Device *device : devices) {
    if (device == nullptr) {
      return support::Error::invalid_argument("serve: null device");
    }
  }
  if (!compute) {
    return support::Error::invalid_argument(
        "serve: DeviceBackend needs a compute backend for functional results");
  }
  return std::unique_ptr<DeviceBackend>(
      new DeviceBackend(std::move(name), std::move(devices), std::move(kernel),
                        std::move(compute), launch_deadline_us));
}

support::Expected<std::map<std::string, runtime::Stream>>
DeviceBackend::run_batch(const std::map<std::string, runtime::Stream> &inputs) {
  {
    // One simulated launch per batch: this is the amortization batching
    // buys, and the hook where injected device faults (DMA flakes, hung
    // kernels) surface as retryable errors.
    std::lock_guard<std::mutex> lock(launch_mu_);
    double ring_now = 0.0;
    for (const Replica &r : ring_) {
      ring_now = std::max(ring_now, r.device->now_us());
    }
    // The next device whose breaker admits the launch; if none does, probe
    // the one whose cooldown ends first instead of refusing the batch.
    std::size_t pick = ring_.size();
    std::size_t probe = 0;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      std::size_t d = (next_ + i) % ring_.size();
      if (ring_[d].breaker.allow(ring_now)) {
        pick = d;
        break;
      }
      if (ring_[d].breaker.open_until_us() <
          ring_[probe].breaker.open_until_us()) {
        probe = d;
      }
    }
    if (pick == ring_.size()) pick = probe;
    next_ = (pick + 1) % ring_.size();
    Replica &replica = ring_[pick];
    auto launch =
        replica.device->run(kernel_, /*dataflow=*/true, launch_deadline_us_);
    if (!launch) {
      replica.breaker.on_failure(
          std::max(ring_now, replica.device->now_us()));
      return launch.error().with_context("serve: launch on " +
                                         replica.device->spec().name);
    }
    replica.breaker.on_success();
  }
  return compute_->run_batch(inputs);
}

void DeviceBackend::add_replica(platform::Device *device) {
  std::lock_guard<std::mutex> lock(launch_mu_);
  ring_.push_back({device, {}});
}

support::Expected<platform::Device *> DeviceBackend::remove_replica() {
  std::lock_guard<std::mutex> lock(launch_mu_);
  if (ring_.size() <= 1) {
    return support::Error::unavailable(
        "serve: cannot remove the last device of '" + name_ + "'");
  }
  platform::Device *device = ring_.back().device;
  ring_.pop_back();
  return device;
}

std::size_t DeviceBackend::replicas() const {
  std::lock_guard<std::mutex> lock(launch_mu_);
  return ring_.size();
}

}  // namespace everest::serve
