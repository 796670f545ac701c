// tcpgas: a partitioned-global-address-space layer over tcrel (§IV.A:
// "TCCluster is compatible with PGAS implementations like UPC over GASNet").
//
// The write-only network shapes the design, exactly as §IV.A predicts:
//  * put = a response-less active message over tcrel to the owner's service
//    loop: sequenced, retransmitted and duplicate-suppressed, and barrier()
//    flushes the request channels so every pre-barrier put is
//    applied-or-replayed before ranks synchronize (relaxed consistency in
//    between). A put to a local element is a plain store,
//  * get = CANNOT be a remote load — responses are unroutable (§IV.A). It is
//    an active message instead: a request message to the owner, whose
//    service loop replies with a data message. This costs a full round trip,
//    which the pgas ablation quantifies.
//
// Each node runs a service loop on core 1, leaving core 0 to the
// application, that answers get requests until the runtime is shut down by a
// collective finalize().
#pragma once

#include <cstdint>
#include <vector>

#include "middleware/mpi.hpp"
#include "sim/mutex.hpp"
#include "tccluster/cluster.hpp"

namespace tcc::middleware {

/// Active-message operations the owner's service loop executes on behalf of
/// remote ranks. Everything that "reads" remote memory must be one of these
/// — the network is write-only (§IV.A).
enum class AmOp : std::uint8_t {
  kGet = 0,       ///< return *addr
  kFetchAdd = 1,  ///< old = *addr; *addr += operand; return old
  kSwap = 2,      ///< old = *addr; *addr = operand; return old
  kPut = 3,       ///< *addr = operand; NO response (reliable relaxed put)
};

/// A block-distributed array of u64 over all nodes, living in each node's
/// shared (uncacheable, remotely writable) region.
class GlobalArray;

class PgasRuntime {
 public:
  PgasRuntime(cluster::TcCluster& cluster, int rank);

  PgasRuntime(const PgasRuntime&) = delete;
  PgasRuntime& operator=(const PgasRuntime&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] cluster::TcCluster& cluster() { return cluster_; }

  /// Start the service loop (spawned on the engine). Call once per node
  /// before any remote get can complete.
  void start_service();

  /// Collective shutdown: barrier, then stop the local service loop. After
  /// finalize() no remote gets may target this node.
  [[nodiscard]] sim::Task<Status> finalize();

  /// Allocate a global array of `elements` u64, block-distributed. MUST be
  /// called collectively in the same order on every rank (symmetric heap).
  [[nodiscard]] Result<GlobalArray> allocate(std::uint64_t elements);

  /// PGAS barrier (strict-consistency point, §IV.A): a preceding sfence
  /// orders all outstanding relaxed puts, then ranks synchronize.
  [[nodiscard]] sim::Task<Status> barrier();

  [[nodiscard]] std::uint64_t gets_served() const { return gets_served_; }

 private:
  friend class GlobalArray;

  sim::Task<void> service_loop();

  /// Execute an atomic op against local shared-region memory. Serialized
  /// with the service loop so concurrent AMs and local atomics are atomic
  /// with respect to each other.
  [[nodiscard]] sim::Task<Result<std::uint64_t>> local_op(AmOp op, std::uint64_t offset,
                                                          std::uint64_t operand,
                                                          opteron::Core& core);

  /// Ship an op to a remote owner's service loop and await the reply.
  [[nodiscard]] sim::Task<Result<std::uint64_t>> remote_op(int owner, AmOp op,
                                                           std::uint64_t offset,
                                                           std::uint64_t operand);

  cluster::TcCluster& cluster_;
  int rank_;
  int size_;
  Communicator comm_;
  std::unique_ptr<cluster::ReliableLibrary> service_lib_;  // bound to service core
  std::unique_ptr<sim::Mutex> atomics_;                    // AM-vs-local atomicity
  std::uint64_t heap_cursor_ = 0;  // symmetric allocation offset (bytes)
  bool service_running_ = false;
  bool stop_requested_ = false;
  std::uint64_t gets_served_ = 0;
};

class GlobalArray {
 public:
  [[nodiscard]] std::uint64_t elements() const { return elements_; }
  /// Elements per node (last node may hold the remainder).
  [[nodiscard]] std::uint64_t block() const { return block_; }
  [[nodiscard]] int owner_of(std::uint64_t index) const;

  /// Relaxed put: completes locally; ordered by the next barrier/fence.
  [[nodiscard]] sim::Task<Status> put(std::uint64_t index, std::uint64_t value);

  /// Get: local = UC read; remote = active-message round trip.
  [[nodiscard]] sim::Task<Result<std::uint64_t>> get(std::uint64_t index);

  /// Atomic fetch-and-add executed by the owner; returns the old value.
  /// Atomic with respect to other fetch_add/swap on the same element.
  [[nodiscard]] sim::Task<Result<std::uint64_t>> fetch_add(std::uint64_t index,
                                                           std::uint64_t delta);

  /// Atomic swap executed by the owner; returns the old value.
  [[nodiscard]] sim::Task<Result<std::uint64_t>> swap(std::uint64_t index,
                                                      std::uint64_t value);

 private:
  friend class PgasRuntime;
  GlobalArray(PgasRuntime& rt, std::uint64_t elements, std::uint64_t block,
              std::uint64_t heap_offset)
      : rt_(&rt), elements_(elements), block_(block), heap_offset_(heap_offset) {}

  /// (owner, byte offset into owner's shared region) of an element.
  [[nodiscard]] std::pair<int, std::uint64_t> locate(std::uint64_t index) const;

  PgasRuntime* rt_;
  std::uint64_t elements_;
  std::uint64_t block_;
  std::uint64_t heap_offset_;
};

}  // namespace tcc::middleware
