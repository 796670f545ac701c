#include "middleware/pgas.hpp"

#include <array>
#include <cstring>

#include "opteron/timing.hpp"

namespace tcc::middleware {

namespace {
/// The core of each chip that runs the service loop (the application owns
/// core 0).
constexpr int kServiceCore = 1;

/// Idle backoff of the service loop between poll sweeps.
constexpr Picoseconds kServiceIdleBackoff = Picoseconds::from_ns(200.0);

/// Active-message request frame: op (1B) + pad + offset (8B) + operand (8B).
constexpr std::size_t kAmFrame = 24;

std::array<std::uint8_t, kAmFrame> encode_am(AmOp op, std::uint64_t offset,
                                             std::uint64_t operand) {
  std::array<std::uint8_t, kAmFrame> buf{};
  buf[0] = static_cast<std::uint8_t>(op);
  std::memcpy(buf.data() + 8, &offset, 8);
  std::memcpy(buf.data() + 16, &operand, 8);
  return buf;
}
}  // namespace

PgasRuntime::PgasRuntime(cluster::TcCluster& cluster, int rank)
    : cluster_(cluster), rank_(rank), size_(cluster.num_nodes()), comm_(cluster, rank) {
  service_lib_ = std::make_unique<cluster::ReliableLibrary>(
      cluster_.driver(rank_), cluster_.core(rank_, kServiceCore), cluster_.rel_config());
  atomics_ = std::make_unique<sim::Mutex>(cluster_.engine());
}

void PgasRuntime::start_service() {
  TCC_ASSERT(!service_running_, "service already running");
  service_running_ = true;
  stop_requested_ = false;
  cluster_.engine().spawn_fn([this]() -> sim::Task<void> { co_await service_loop(); });
}

sim::Task<Result<std::uint64_t>> PgasRuntime::local_op(AmOp op, std::uint64_t offset,
                                                       std::uint64_t operand,
                                                       opteron::Core& core) {
  const AddrRange shared = cluster_.driver(rank_).shared_region(rank_);
  if (offset + 8 > shared.size) {
    co_return make_error(ErrorCode::kOutOfRange, "AM offset outside the shared region");
  }
  auto guard = co_await atomics_->scoped();
  auto old = co_await core.load_u64(shared.base + offset);
  if (!old.ok()) co_return old.error();
  std::uint64_t next = old.value();
  switch (op) {
    case AmOp::kGet:
      co_return old.value();
    case AmOp::kFetchAdd:
      next = old.value() + operand;
      break;
    case AmOp::kSwap:
    case AmOp::kPut:
      next = operand;
      break;
  }
  Status s = co_await core.store_u64(shared.base + offset, next);
  if (!s.ok()) co_return s.error();
  co_return old.value();
}

sim::Task<void> PgasRuntime::service_loop() {
  opteron::Core& core = cluster_.core(rank_, kServiceCore);
  for (;;) {
    bool did_work = false;
    for (int peer = 0; peer < size_; ++peer) {
      if (peer == rank_) continue;
      auto req_ep = service_lib_->connect(peer, cluster::RingChannel::kPgasRequest);
      if (!req_ep.ok()) continue;
      if (!co_await req_ep.value()->poll()) continue;
      // poll() true may still yield nothing: the waiting frame can be a
      // duplicate the reliable layer suppresses — bound the recv so one
      // peer's duplicate cannot stall the whole sweep.
      auto req = co_await req_ep.value()->recv(core.now() + Picoseconds::from_us(2.0));
      if (!req.ok() || req.value().size() != kAmFrame) continue;
      const auto op = static_cast<AmOp>(req.value()[0]);
      std::uint64_t offset = 0, operand = 0;
      std::memcpy(&offset, req.value().data() + 8, 8);
      std::memcpy(&operand, req.value().data() + 16, 8);
      auto result = co_await local_op(op, offset, operand, core);
      if (op != AmOp::kPut) {  // reliable puts are response-less
        const std::uint64_t value = result.ok() ? result.value() : 0;
        auto resp_ep =
            service_lib_->connect(peer, cluster::RingChannel::kPgasResponse);
        if (resp_ep.ok()) {
          std::uint8_t buf[8];
          std::memcpy(buf, &value, 8);
          (void)co_await resp_ep.value()->send(buf);
        }
      }
      ++gets_served_;
      did_work = true;
    }
    if (!did_work) {
      if (stop_requested_) {
        service_running_ = false;
        co_return;
      }
      co_await cluster_.engine().delay(kServiceIdleBackoff);
    }
  }
}

sim::Task<Status> PgasRuntime::finalize() {
  Status s = co_await barrier();
  if (!s.ok()) co_return s;
  stop_requested_ = true;
  co_return Status{};
}

sim::Task<Status> PgasRuntime::barrier() {
  // Reliable puts first: wait until the owners' service loops acknowledged
  // every outstanding put AM — a put lost to a fault is replayed (not lost)
  // before any rank may pass the barrier.
  for (cluster::ReliableEndpoint* ep : cluster_.rel(rank_).open_endpoints()) {
    if (ep->channel() != cluster::RingChannel::kPgasRequest) continue;
    Status s = co_await ep->flush();
    if (!s.ok()) co_return s;
  }
  // Strict-consistency point (§IV.A): Sfence drains the relaxed local puts
  // (combining stores), then ranks synchronize with messages — every put
  // issued before the barrier is visible after it.
  Status s = co_await cluster_.core(rank_, 0).sfence();
  if (!s.ok()) co_return s;
  co_return co_await comm_.barrier();
}

Result<GlobalArray> PgasRuntime::allocate(std::uint64_t elements) {
  if (elements == 0) {
    return make_error(ErrorCode::kInvalidArgument, "empty global array");
  }
  const std::uint64_t block =
      (elements + static_cast<std::uint64_t>(size_) - 1) / static_cast<std::uint64_t>(size_);
  const std::uint64_t bytes_per_node = ((block * 8) + 63) / 64 * 64;  // line align
  const std::uint64_t shared = cluster_.driver(rank_).shared_bytes();
  if (heap_cursor_ + bytes_per_node > shared) {
    return make_error(ErrorCode::kResourceExhausted,
                      "symmetric heap exhausted; raise Options::shared_bytes");
  }
  GlobalArray arr(*this, elements, block, heap_cursor_);
  heap_cursor_ += bytes_per_node;
  return arr;
}

sim::Task<Result<std::uint64_t>> PgasRuntime::remote_op(int owner, AmOp op,
                                                        std::uint64_t offset,
                                                        std::uint64_t operand) {
  auto req_ep = cluster_.rel(rank_).connect(owner, cluster::RingChannel::kPgasRequest);
  if (!req_ep.ok()) co_return req_ep.error();
  const auto frame = encode_am(op, offset, operand);
  Status s = co_await req_ep.value()->send(frame);
  if (!s.ok()) co_return s.error();
  auto resp_ep = cluster_.rel(rank_).connect(owner, cluster::RingChannel::kPgasResponse);
  if (!resp_ep.ok()) co_return resp_ep.error();
  auto r = co_await resp_ep.value()->recv();
  if (!r.ok()) co_return r.error();
  if (r.value().size() != 8) {
    co_return make_error(ErrorCode::kProtocolViolation, "malformed get response");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, r.value().data(), 8);
  co_return v;
}

int GlobalArray::owner_of(std::uint64_t index) const {
  return static_cast<int>(index / block_);
}

std::pair<int, std::uint64_t> GlobalArray::locate(std::uint64_t index) const {
  TCC_ASSERT(index < elements_, "global array index out of range");
  const int owner = owner_of(index);
  return {owner, heap_offset_ + (index % block_) * 8};
}

sim::Task<Status> GlobalArray::put(std::uint64_t index, std::uint64_t value) {
  const auto [owner, offset] = locate(index);
  cluster::TcCluster& cl = rt_->cluster();
  if (owner == rt_->rank()) {
    const PhysAddr addr = cl.driver(rt_->rank()).shared_region(owner).base + offset;
    // Relaxed consistency: a plain (combining) store; a later fence/barrier
    // orders it.
    co_return co_await cl.core(rt_->rank(), 0).store_u64(addr, value);
  }
  // A response-less active message the owner's service loop applies; still
  // relaxed (completion = accepted into the retransmit window), made
  // globally visible by barrier()'s request-channel flush.
  auto req_ep = cl.rel(rt_->rank()).connect(owner, cluster::RingChannel::kPgasRequest);
  if (!req_ep.ok()) co_return req_ep.error();
  const auto frame = encode_am(AmOp::kPut, offset, value);
  co_return co_await req_ep.value()->send(frame);
}

sim::Task<Result<std::uint64_t>> GlobalArray::get(std::uint64_t index) {
  const auto [owner, offset] = locate(index);
  if (owner == rt_->rank()) {
    co_return co_await rt_->local_op(AmOp::kGet, offset, 0, rt_->cluster().core(rt_->rank(), 0));
  }
  co_return co_await rt_->remote_op(owner, AmOp::kGet, offset, 0);
}

sim::Task<Result<std::uint64_t>> GlobalArray::fetch_add(std::uint64_t index,
                                                        std::uint64_t delta) {
  const auto [owner, offset] = locate(index);
  if (owner == rt_->rank()) {
    co_return co_await rt_->local_op(AmOp::kFetchAdd, offset, delta,
                                     rt_->cluster().core(rt_->rank(), 0));
  }
  co_return co_await rt_->remote_op(owner, AmOp::kFetchAdd, offset, delta);
}

sim::Task<Result<std::uint64_t>> GlobalArray::swap(std::uint64_t index,
                                                   std::uint64_t value) {
  const auto [owner, offset] = locate(index);
  if (owner == rt_->rank()) {
    co_return co_await rt_->local_op(AmOp::kSwap, offset, value,
                                     rt_->cluster().core(rt_->rank(), 0));
  }
  co_return co_await rt_->remote_op(owner, AmOp::kSwap, offset, value);
}

}  // namespace tcc::middleware
