#include "opteron/core.hpp"

#include <cstring>

namespace tcc::opteron {

Core::Core(sim::Engine& engine, std::string name, Northbridge& nb)
    : engine_(engine), name_(std::move(name)), nb_(nb), wc_(engine, nb) {}

sim::Task<Status> Core::store(PhysAddr addr, std::span<const std::uint8_t> bytes) {
  TCC_ASSERT(bytes.size() <= 8, "a single store is at most 8 bytes");
  ++stores_;
  co_await engine_.delay(kStoreIssue);
  switch (mtrr_.type_of(addr)) {
    case MemType::kWriteBack: {
      // Cacheable store: must target local DRAM (coherent remote WB accesses
      // go through the coherence layer, not the raw core API).
      if (!nb_.mc().range().contains(addr)) {
        co_return make_error(ErrorCode::kUnsupported,
                             name_ + ": WB store outside local DRAM (use the "
                                     "coherence layer for remote shared memory)");
      }
      nb_.mc().poke(addr, bytes);
      co_return Status{};
    }
    case MemType::kWriteCombining:
      co_return co_await wc_.store(addr, bytes);
    case MemType::kUncacheable: {
      ht::Packet p = ht::Packet::posted_write(addr, bytes);
      co_return co_await nb_.core_posted_write(std::move(p));
    }
  }
  co_return make_error(ErrorCode::kInvalidArgument, "unknown memory type");
}

sim::Task<Status> Core::store_bytes(PhysAddr addr, std::span<const std::uint8_t> bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    // Chunk to 8-byte alignment so WC lines fill front-to-back.
    const std::uint64_t a = addr.value() + done;
    std::size_t chunk = 8 - (a % 8);
    chunk = std::min(chunk, bytes.size() - done);
    Status s = co_await store(PhysAddr{a}, bytes.subspan(done, chunk));
    if (!s.ok()) co_return s;
    done += chunk;
  }
  co_return Status{};
}

sim::Task<Status> Core::store_u64(PhysAddr addr, std::uint64_t value) {
  std::uint8_t buf[8];
  std::memcpy(buf, &value, 8);
  co_return co_await store(addr, buf);
}

sim::Task<Status> Core::load(PhysAddr addr, std::span<std::uint8_t> out) {
  TCC_ASSERT(out.size() <= 8, "a single load is at most 8 bytes");
  ++loads_;
  co_await engine_.delay(kLoadIssue);
  switch (mtrr_.type_of(addr)) {
    case MemType::kWriteBack: {
      if (!nb_.mc().range().contains(addr)) {
        co_return make_error(ErrorCode::kUnsupported,
                             name_ + ": WB load outside local DRAM");
      }
      co_await engine_.delay(kCacheHitLatency);
      nb_.mc().peek(addr, out);
      co_return Status{};
    }
    case MemType::kWriteCombining:
    case MemType::kUncacheable:
      // Both are uncached on the load side; the northbridge enforces the
      // write-only rule for TCCluster apertures.
      co_return co_await nb_.core_read(addr, out);
  }
  co_return make_error(ErrorCode::kInvalidArgument, "unknown memory type");
}

sim::Task<Result<std::uint64_t>> Core::load_u64(PhysAddr addr) {
  std::uint8_t buf[8] = {};
  Status s = co_await load(addr, buf);
  if (!s.ok()) co_return s.error();
  std::uint64_t v = 0;
  std::memcpy(&v, buf, 8);
  co_return v;
}

sim::Task<Status> Core::load_bytes(PhysAddr addr, std::span<std::uint8_t> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t a = addr.value() + done;
    std::size_t chunk = 8 - (a % 8);
    chunk = std::min(chunk, out.size() - done);
    Status s = co_await load(PhysAddr{a}, out.subspan(done, chunk));
    if (!s.ok()) co_return s;
    done += chunk;
  }
  co_return Status{};
}

sim::Task<Status> Core::sfence() {
  // Sfence drains the WC buffers into the (in-order) northbridge queue and
  // serializes the pipeline. It does NOT wait for posted writes to reach
  // their destination — posted traffic has no completion; ordering is
  // guaranteed by the single in-order posted channel (§IV.A).
  ++sfences_;
  Status s = co_await wc_.flush_all();
  if (!s.ok()) co_return s;
  co_await engine_.delay(kSfencePipeline);
  co_return Status{};
}

}  // namespace tcc::opteron
