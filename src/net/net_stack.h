// Minimal network substrate for event grafts (paper §3.5).
//
// Models ports, connections, and datagrams. Listening on a port creates an
// event graft point ("net.tcp.<port>.connection" / "net.udp.<port>.packet");
// synthetic traffic is delivered through DeliverConnection / DeliverPacket
// (synchronous: handlers have run when the call returns) or through
// DeliverConnectionAsync / DeliverPacketAsync (handlers run on the shared
// event worker pool — the paper's "spawn a worker thread per event" model,
// bounded; see src/base/worker_pool.h). Either way each handler runs in its
// own transaction. After async delivery, DrainEvents() (or draining the
// individual point) waits for handlers to finish.
//
// Connection lifetime. A delivery *completes* when its last handler has
// finished: on return from a sync Deliver*, or inside the async event's
// completion hook (so after DrainEvents()). A completed connection stays
// findable until the next delivery on the same port completes; then its
// slot is recycled for a later delivery. This is why the id DeliverConnection
// returns is valid only until the port's next completed delivery: a caller
// that reads the reply right after its own delivery, and before delivering
// again on that port, always finds it. Live connections are therefore
// bounded by the listening ports plus the deliveries in flight
// (Stats::live_connections), not by the run length.
//
// Ids and stale ids. Connections live in a slab of fixed-size chunks that
// never move or shrink. A ConnectionId is (generation << 32 | slot);
// FindConnection is an index plus a generation compare. Recycling a slot
// bumps its generation, so a stale id returns nullptr — also after the slot
// is reused under a new generation. A stale Connection* still points at a
// live (recycled) Connection, never at freed memory. A recycled connection
// keeps the capacity of its rx/tx strings, so a warm synchronous delivery
// allocates nothing.
//
// Concurrency: lookups (ports, connections) and stats are lock-free;
// deliveries on different ports share no lock, and a port delivered by one
// thread reuses its own recycled slot without locking. The stack mutex
// guards only Listen and slab growth. A single connection's byte streams are
// NOT locked — the stack assumes one handler consumes a given connection
// (true for the one-handler-per-port services the paper builds;
// multi-handler ports should use sync delivery or disjoint connections).
//
// Grafts interact with connections through three graft-callable host
// functions the stack registers:
//   net.recv(conn, dst, max)  - copy request bytes into the graft arena,
//   net.send(conn, src, len)  - append bytes from the arena to the response
//                               (charged against kNetBandwidth),
//   net.close(conn)           - close the connection.
// net.send is undo-logged: an aborted handler's partial response is
// discarded, so a crashing HTTP handler never leaks half a reply.

#ifndef VINOLITE_SRC_NET_NET_STACK_H_
#define VINOLITE_SRC_NET_NET_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/sharded_counter.h"
#include "src/base/worker_pool.h"
#include "src/graft/event_point.h"
#include "src/graft/namespace.h"
#include "src/sfi/host.h"
#include "src/txn/txn_manager.h"

namespace vino {

using ConnectionId = uint64_t;

struct Connection {
  ConnectionId id = 0;
  uint16_t port = 0;
  bool open = true;
  std::string rx;          // Bytes from the client (the request).
  uint64_t rx_consumed = 0;
  std::string tx;          // Bytes queued to the client (the response).
};

class NetStack {
 public:
  // Registers the net.* host functions into `host` at construction.
  // `pool` (borrowed, may be null → process default) carries async event
  // delivery for every point this stack creates.
  NetStack(TxnManager* txn_manager, HostCallTable* host, GraftNamespace* ns,
           WorkerPool* pool = nullptr);

  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  // Creates (or returns) the connection-event point for a TCP port.
  EventGraftPoint* ListenTcp(uint16_t port);
  // Creates (or returns) the packet-event point for a UDP port.
  EventGraftPoint* ListenUdp(uint16_t port);

  // Synthetic traffic injection. Creates a connection carrying `request`
  // and dispatches the port's connection event with the connection id as
  // the argument. Returns the id (connection exists even if no handler
  // consumed it), valid until the port's next completed delivery. Fails
  // with kNotFound if nothing listens on the port.
  Result<ConnectionId> DeliverConnection(uint16_t port, std::string_view request);

  // Dispatches a UDP packet event; the payload rides in a one-shot
  // connection-like object.
  Result<ConnectionId> DeliverPacket(uint16_t port, std::string_view payload);

  // Asynchronous variants: the event is dispatched onto the worker pool
  // and the call returns immediately with the connection id. The response
  // (Connection::tx) is complete only after DrainEvents() — or after
  // draining the port's point.
  Result<ConnectionId> DeliverConnectionAsync(uint16_t port,
                                              std::string_view request);
  Result<ConnectionId> DeliverPacketAsync(uint16_t port,
                                          std::string_view payload);

  // Waits for every outstanding async event dispatched by this stack.
  void DrainEvents();

  // The connection `id` names, or nullptr once it has been recycled.
  [[nodiscard]] Connection* FindConnection(ConnectionId id);

  struct Stats {
    uint64_t connections = 0;
    uint64_t packets = 0;
    uint64_t bytes_sent = 0;
    // Connections and packets delivered and not yet recycled: in flight,
    // or the latest completed delivery of their port.
    uint64_t live_connections = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  enum Protocol : uint32_t { kTcp = 0, kUdp = 1 };
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct alignas(64) Port {
    // The latest completed delivery: still findable.
    std::atomic<uint32_t> last{kNoSlot};
    // A recycled slot parked for the port's next delivery.
    std::atomic<uint32_t> spare{kNoSlot};
    // Declared last: destroying the point drains it, and its completion
    // hooks still use `last` and `spare`.
    std::unique_ptr<EventGraftPoint> point;
  };

  // A slab entry. The generation is odd while the slot is free and even
  // while it holds a connection; ids carry the even value.
  struct Slot {
    std::atomic<uint32_t> generation{1};
    Connection conn;
  };

  // Ports are keyed by (protocol << 16 | port) in a two-level table whose
  // pages are created under mutex_ and read without it.
  static constexpr uint32_t kPortPageSize = 256;
  static constexpr uint32_t kPortPages = (2u << 16) / kPortPageSize;
  struct PortPage {
    std::atomic<Port*> ports[kPortPageSize] = {};
  };

  static constexpr uint32_t kChunkSlots = 256;
  static constexpr uint32_t kMaxChunks = 4096;

  EventGraftPoint* Listen(Protocol protocol, uint16_t number);
  [[nodiscard]] Port* FindPort(Protocol protocol, uint16_t number) const;
  Result<ConnectionId> Deliver(Protocol protocol, uint16_t number,
                               std::string_view payload, bool async);
  [[nodiscard]] Slot& SlotAt(uint32_t slot) const;
  // Takes the port's spare slot, else a free or new one; kNoSlot when the
  // slab is full.
  uint32_t AcquireSlot(Port& port);
  // The retirement rule: `slot` becomes the port's latest completed
  // delivery, and the one it displaces is recycled.
  void Complete(Port& port, uint32_t slot);

  TxnManager* txn_manager_;
  const HostCallTable* host_;
  GraftNamespace* ns_;
  WorkerPool* pool_;

  enum Counter : size_t { kConnections, kPackets, kBytesSent, kRecycled };
  ShardedCounters<4> counters_;

  std::atomic<PortPage*> port_pages_[kPortPages] = {};
  std::atomic<Slot*> chunks_[kMaxChunks] = {};

  // Guards everything below. Never held while dispatching.
  std::mutex mutex_;
  std::vector<std::unique_ptr<PortPage>> page_storage_;
  std::vector<std::unique_ptr<Slot[]>> chunk_storage_;
  std::vector<uint32_t> free_slots_;
  uint32_t slot_count_ = 0;
  // Declared last: destroying a point drains it, and its completion hooks
  // still use the slab above.
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_NET_NET_STACK_H_
