#include "runtime/transport.h"

#include <stdexcept>

namespace meanet::runtime {

SimulatedLink::SimulatedLink(TransportConfig config, std::shared_ptr<sim::Clock> clock)
    : config_(std::move(config)), clock_(sim::resolve_clock(std::move(clock))) {
  if (config_.cell) {
    // One medium, one timeline: a shared cell's waits must run on the
    // same clock as every session transferring on it, or a virtual-time
    // session would block on wall airtime (and vice versa).
    if (config_.cell->clock() != clock_) {
      throw std::invalid_argument(
          "SimulatedLink: the shared cell and the session must use the same clock "
          "(set SharedCellConfig::clock and EngineConfig::clock to one instance)");
    }
    cell_ = config_.cell;
  } else {
    // A plain config is a cell of one: same delay math, no contention.
    // SharedCell's constructor validates the throughput/latency fields.
    sim::SharedCellConfig private_cell;
    private_cell.uplink = config_.wifi;
    private_cell.downlink = config_.downlink;
    private_cell.base_latency_s = config_.base_latency_s;
    private_cell.jitter_s = config_.jitter_s;
    private_cell.seed = config_.seed;
    private_cell.clock = clock_;
    cell_ = std::make_shared<sim::SharedCell>(private_cell);
  }
  station_ = cell_->attach();
}

SimulatedLink::~SimulatedLink() { cell_->detach(station_); }

double SimulatedLink::uplink_delay_s(std::uint64_t key, std::int64_t payload_bytes) {
  return cell_->uplink_delay_s(station_, key, payload_bytes);
}

double SimulatedLink::downlink_delay_s(std::uint64_t key, std::int64_t response_bytes) {
  return cell_->downlink_delay_s(station_, key, response_bytes);
}

sim::TransferOutcome SimulatedLink::upload(std::uint64_t key, std::int64_t payload_bytes,
                                           const std::function<bool()>& cancel) {
  return cell_->uplink_transfer(station_, key, payload_bytes, cancel);
}

sim::TransferOutcome SimulatedLink::download(std::uint64_t key, std::int64_t response_bytes,
                                             const std::function<bool()>& cancel) {
  return cell_->downlink_transfer(station_, key, response_bytes, cancel);
}

void SimulatedLink::poke() { cell_->poke(); }

}  // namespace meanet::runtime
