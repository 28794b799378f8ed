#include "src/net/net_stack.h"

#include "src/resource/account.h"
#include "src/txn/accessor.h"

namespace vino {

NetStack::NetStack(TxnManager* txn_manager, HostCallTable* host,
                   GraftNamespace* ns, WorkerPool* pool)
    : txn_manager_(txn_manager), host_(host), ns_(ns), pool_(pool) {
  // net.recv: r0 = connection id, r1 = arena destination, r2 = max bytes.
  // Returns the number of bytes copied (0 at end of request).
  host->Register(
      "net.recv",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        Connection* conn = FindConnection(ctx.args[0]);
        if (conn == nullptr || !conn->open) {
          return Status::kNotFound;
        }
        if (ctx.image == nullptr) {
          return Status::kInvalidArgs;
        }
        const uint64_t remaining = conn->rx.size() - conn->rx_consumed;
        uint64_t n = ctx.args[2] < remaining ? ctx.args[2] : remaining;
        // The destination must lie inside the caller's arena: a graft must
        // not use the kernel as a deputy to write kernel memory.
        if (n > 0 && !ctx.image->InArena(ctx.args[1], n)) {
          return Status::kPermissionDenied;
        }
        if (n > 0) {
          const Status s =
              ctx.image->Write(ctx.args[1], conn->rx.data() + conn->rx_consumed, n);
          if (!IsOk(s)) {
            return s;
          }
          const uint64_t prior = conn->rx_consumed;
          conn->rx_consumed += n;
          TxnOnAbort([conn, prior] { conn->rx_consumed = prior; });
        }
        return n;
      },
      /*graft_callable=*/true);

  // net.send: r0 = connection id, r1 = arena source, r2 = length.
  // Appends to the response; undo-logged so aborts retract partial output.
  host->Register(
      "net.send",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        Connection* conn = FindConnection(ctx.args[0]);
        if (conn == nullptr || !conn->open) {
          return Status::kNotFound;
        }
        if (ctx.image == nullptr || !ctx.image->InArena(ctx.args[1], ctx.args[2])) {
          return Status::kPermissionDenied;
        }
        const Status charge = ChargeCurrent(ResourceType::kNetBandwidth, ctx.args[2]);
        if (!IsOk(charge)) {
          return charge;
        }
        const size_t prior_size = conn->tx.size();
        conn->tx.resize(prior_size + ctx.args[2]);
        const Status s =
            ctx.image->Read(ctx.args[1], conn->tx.data() + prior_size, ctx.args[2]);
        if (!IsOk(s)) {
          conn->tx.resize(prior_size);
          return s;
        }
        counters_.Add(kBytesSent, ctx.args[2]);
        TxnOnAbort([conn, prior_size] { conn->tx.resize(prior_size); });
        return ctx.args[2];
      },
      /*graft_callable=*/true);

  // net.close: r0 = connection id.
  host->Register(
      "net.close",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        Connection* conn = FindConnection(ctx.args[0]);
        if (conn == nullptr) {
          return Status::kNotFound;
        }
        if (conn->open) {
          conn->open = false;
          TxnOnAbort([conn] { conn->open = true; });
        }
        return 0ull;
      },
      /*graft_callable=*/true);
}

EventGraftPoint* NetStack::Listen(Protocol protocol, uint16_t number) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (Port* existing = FindPort(protocol, number)) {
    return existing->point.get();
  }
  const uint32_t key = protocol << 16 | number;
  std::atomic<PortPage*>& page_ref = port_pages_[key / kPortPageSize];
  PortPage* page = page_ref.load(std::memory_order_relaxed);
  if (page == nullptr) {
    page = page_storage_.emplace_back(std::make_unique<PortPage>()).get();
    page_ref.store(page, std::memory_order_release);
  }
  EventGraftPoint::Config config;
  config.pool = pool_;
  const std::string name =
      protocol == kTcp
          ? "net.tcp." + std::to_string(number) + ".connection"
          : "net.udp." + std::to_string(number) + ".packet";
  auto port = std::make_unique<Port>();
  port->point = std::make_unique<EventGraftPoint>(name, config, txn_manager_,
                                                  host_, ns_);
  page->ports[key % kPortPageSize].store(port.get(), std::memory_order_release);
  return ports_.emplace_back(std::move(port))->point.get();
}

NetStack::Port* NetStack::FindPort(Protocol protocol, uint16_t number) const {
  const uint32_t key = protocol << 16 | number;
  const PortPage* page =
      port_pages_[key / kPortPageSize].load(std::memory_order_acquire);
  return page == nullptr
             ? nullptr
             : page->ports[key % kPortPageSize].load(std::memory_order_acquire);
}

EventGraftPoint* NetStack::ListenTcp(uint16_t port) { return Listen(kTcp, port); }

EventGraftPoint* NetStack::ListenUdp(uint16_t port) { return Listen(kUdp, port); }

NetStack::Slot& NetStack::SlotAt(uint32_t slot) const {
  return chunks_[slot / kChunkSlots].load(std::memory_order_acquire)[slot % kChunkSlots];
}

uint32_t NetStack::AcquireSlot(Port& port) {
  const uint32_t spare = port.spare.exchange(kNoSlot, std::memory_order_acquire);
  if (spare != kNoSlot) {
    return spare;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slot_count_ == kChunkSlots * kMaxChunks) {
    return kNoSlot;
  }
  const uint32_t slot = slot_count_++;
  if (slot % kChunkSlots == 0) {
    Slot* chunk =
        chunk_storage_.emplace_back(std::make_unique<Slot[]>(kChunkSlots)).get();
    chunks_[slot / kChunkSlots].store(chunk, std::memory_order_release);
  }
  return slot;
}

void NetStack::Complete(Port& port, uint32_t slot) {
  const uint32_t prior = port.last.exchange(slot, std::memory_order_acq_rel);
  if (prior == kNoSlot) {
    return;
  }
  // Odd generation: the displaced connection's id stops resolving.
  SlotAt(prior).generation.fetch_add(1, std::memory_order_release);
  counters_.Add(kRecycled);
  uint32_t empty = kNoSlot;
  if (!port.spare.compare_exchange_strong(empty, prior,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> guard(mutex_);
    free_slots_.push_back(prior);
  }
}

Result<ConnectionId> NetStack::Deliver(Protocol protocol, uint16_t number,
                                       std::string_view payload, bool async) {
  Port* port = FindPort(protocol, number);
  if (port == nullptr) {
    return Status::kNotFound;
  }
  const uint32_t slot = AcquireSlot(*port);
  if (slot == kNoSlot) {
    return Status::kNoMemory;
  }
  Slot& entry = SlotAt(slot);
  // Even generation: live. The id carries it.
  const uint32_t generation =
      entry.generation.fetch_add(1, std::memory_order_release) + 1;
  Connection& conn = entry.conn;
  conn.id = static_cast<ConnectionId>(generation) << 32 | slot;
  conn.port = number;
  conn.open = true;
  conn.rx.assign(payload);
  conn.rx_consumed = 0;
  conn.tx.clear();
  counters_.Add(protocol == kTcp ? kConnections : kPackets);

  const ConnectionId id = conn.id;
  if (async) {
    port->point->DispatchAsync({id}, [this, port, slot] { Complete(*port, slot); });
  } else {
    const uint64_t args[1] = {id};
    port->point->Dispatch(args);
    Complete(*port, slot);
  }
  return id;
}

Result<ConnectionId> NetStack::DeliverConnection(uint16_t port,
                                                 std::string_view request) {
  return Deliver(kTcp, port, request, /*async=*/false);
}

Result<ConnectionId> NetStack::DeliverPacket(uint16_t port,
                                             std::string_view payload) {
  return Deliver(kUdp, port, payload, /*async=*/false);
}

Result<ConnectionId> NetStack::DeliverConnectionAsync(uint16_t port,
                                                      std::string_view request) {
  return Deliver(kTcp, port, request, /*async=*/true);
}

Result<ConnectionId> NetStack::DeliverPacketAsync(uint16_t port,
                                                  std::string_view payload) {
  return Deliver(kUdp, port, payload, /*async=*/true);
}

void NetStack::DrainEvents() {
  // Snapshot under the lock, drain outside it: draining blocks on handler
  // completion, and handlers call back into the stack.
  std::vector<EventGraftPoint*> points;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    points.reserve(ports_.size());
    for (const auto& port : ports_) {
      points.push_back(port->point.get());
    }
  }
  for (EventGraftPoint* point : points) {
    point->Drain();
  }
}

Connection* NetStack::FindConnection(ConnectionId id) {
  const auto slot = static_cast<uint32_t>(id);
  const auto generation = static_cast<uint32_t>(id >> 32);
  if (slot / kChunkSlots >= kMaxChunks || generation % 2 != 0) {
    return nullptr;
  }
  Slot* chunk = chunks_[slot / kChunkSlots].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    return nullptr;
  }
  Slot& entry = chunk[slot % kChunkSlots];
  return entry.generation.load(std::memory_order_acquire) == generation
             ? &entry.conn
             : nullptr;
}

NetStack::Stats NetStack::stats() const {
  Stats s;
  s.connections = counters_.Read(kConnections);
  s.packets = counters_.Read(kPackets);
  s.bytes_sent = counters_.Read(kBytesSent);
  s.live_connections = s.connections + s.packets - counters_.Read(kRecycled);
  return s;
}

}  // namespace vino
