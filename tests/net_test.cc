// Network substrate tests: ports, connections, the net.* host interface,
// bandwidth accounting, and transactional retraction of partial responses.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/net_stack.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

class NetTest : public ::testing::Test {
 protected:
  NetTest() : stack_(&txn_, &host_, &ns_) {}

  // Builds an echo handler: recv into arena, send it back, close.
  std::shared_ptr<Graft> EchoHandler(uint64_t bandwidth_limit = 1 << 20) {
    const uint32_t recv = host_.IdOf("net.recv").value();
    const uint32_t send = host_.IdOf("net.send").value();
    const uint32_t close = host_.IdOf("net.close").value();

    Asm a("echo");
    // r6 = connection id (arrives in r0).
    a.Mov(R6, R0);
    // recv(conn, arena_base, 1024). Arena base must be computed by the
    // graft; the sandbox base register is not readable, so grafts use
    // address 0 and rely on masking... but host calls check InArena, so we
    // pass a real arena address via loadi of 0 + the sandbox OR trick is
    // unavailable. Instead the kernel convention is that grafts address
    // their arena from 0 upward and the host functions treat addresses
    // relative... -- see NOTE below; here we cheat and use the known arena
    // base for a 64KiB-arena graft image (4096-byte kernel region).
    a.LoadImm(R7, 65536);  // Arena base for kernel_region=4096, arena 64KiB.
    a.Mov(R0, R6);
    a.Mov(R1, R7);
    a.LoadImm(R2, 1024);
    a.Call(recv);
    a.Mov(R8, R0);  // bytes received
    // send(conn, base, n)
    a.Mov(R0, R6);
    a.Mov(R1, R7);
    a.Mov(R2, R8);
    a.Call(send);
    // close(conn)
    a.Mov(R0, R6);
    a.Call(close);
    a.LoadImm(R0, 1);
    a.Halt();
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    auto graft = std::make_shared<Graft>("echo", *inst, kUser, 4096);
    graft->account().SetLimit(ResourceType::kNetBandwidth, bandwidth_limit);
    return graft;
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  NetStack stack_;
};

TEST_F(NetTest, DeliveryWithoutListenerFails) {
  EXPECT_FALSE(stack_.DeliverConnection(80, "x").ok());
}

TEST_F(NetTest, ListenIsIdempotent) {
  EventGraftPoint* a = stack_.ListenTcp(80);
  EventGraftPoint* b = stack_.ListenTcp(80);
  EXPECT_EQ(a, b);
  EXPECT_NE(stack_.ListenUdp(80), a);  // Different protocol, different point.
}

TEST_F(NetTest, EchoHandlerRoundTrip) {
  EventGraftPoint* point = stack_.ListenTcp(7);
  std::shared_ptr<Graft> echo = EchoHandler();
  ASSERT_EQ(point->AddHandler(echo, 1), Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnection(7, "hello vino");
  ASSERT_TRUE(conn.ok());
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tx, "hello vino");
  EXPECT_FALSE(c->open);  // Handler closed it.
  EXPECT_EQ(stack_.stats().bytes_sent, 10u);
  // The committed send stays billed to the handler's own account.
  EXPECT_EQ(echo->account().usage(ResourceType::kNetBandwidth), 10u);
}

TEST_F(NetTest, BandwidthLimitAbortsAndRetractsResponse) {
  EventGraftPoint* point = stack_.ListenTcp(7);
  // 4-byte bandwidth budget; a 10-byte send exceeds it -> the host call
  // fails -> the handler's transaction aborts -> handler removed.
  ASSERT_EQ(point->AddHandler(EchoHandler(/*bandwidth_limit=*/4), 1), Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnection(7, "0123456789");
  ASSERT_TRUE(conn.ok());
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tx, "");             // No partial junk leaked.
  EXPECT_TRUE(c->open);             // Close (never reached) not applied.
  EXPECT_EQ(point->handler_count(), 0u);  // Handler removed after abort.
}

TEST_F(NetTest, AbortedHandlerRetractsPartialSend) {
  // Handler sends 4 bytes successfully, then loops forever: the abort must
  // retract the already-sent bytes (undo log on net.send).
  const uint32_t send = host_.IdOf("net.send").value();
  Asm a("partial");
  a.Mov(R6, R0);
  a.LoadImm(R7, 65536);
  a.Mov(R1, R7);
  a.LoadImm(R2, 4);
  a.Call(send);
  auto top = a.NewLabel();
  a.Bind(top);
  a.Jmp(top);  // Covert denial of service.
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>("partial", *inst, kUser, 4096);
  graft->account().SetLimit(ResourceType::kNetBandwidth, 1 << 20);

  EventGraftPoint::Config config;
  config.fuel = 50'000;
  EventGraftPoint point("test.partial-send", config, &txn_, &host_, &ns_);
  ASSERT_EQ(point.AddHandler(graft, 1), Status::kOk);

  // Create a raw connection (no stack listener needed) and dispatch.
  EventGraftPoint* listen = stack_.ListenTcp(9);
  (void)listen;
  Result<ConnectionId> conn = stack_.DeliverConnection(9, "abcd");
  ASSERT_TRUE(conn.ok());
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  const uint64_t args[1] = {*conn};
  point.Dispatch(args);
  EXPECT_EQ(c->tx, "");  // The 4 sent bytes were retracted by the abort.
}

TEST_F(NetTest, RecvRejectsKernelDestinations) {
  // A graft cannot use net.recv as a confused deputy to scribble on kernel
  // memory: destination must be inside its own arena.
  const uint32_t recv = host_.IdOf("net.recv").value();
  Asm a("deputy");
  a.Mov(R6, R0);
  a.Mov(R0, R6);
  a.LoadImm(R1, 64);  // Kernel region address!
  a.LoadImm(R2, 16);
  a.Call(recv);
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>("deputy", *inst, kUser, 4096);

  EventGraftPoint* point = stack_.ListenTcp(11);
  ASSERT_EQ(point->AddHandler(graft, 1), Status::kOk);
  Result<ConnectionId> conn = stack_.DeliverConnection(11, "payload");
  ASSERT_TRUE(conn.ok());
  // The host call failed -> handler aborted and removed.
  EXPECT_EQ(point->handler_count(), 0u);
}

TEST_F(NetTest, UdpPacketDelivery) {
  EventGraftPoint* point = stack_.ListenUdp(2049);
  ASSERT_EQ(point->AddHandler(EchoHandler(), 1), Status::kOk);
  Result<ConnectionId> pkt = stack_.DeliverPacket(2049, "nfs-req");
  ASSERT_TRUE(pkt.ok());
  EXPECT_EQ(stack_.FindConnection(*pkt)->tx, "nfs-req");
  EXPECT_EQ(stack_.stats().packets, 1u);
}

TEST_F(NetTest, MultipleHandlersEachOwnTransaction) {
  EventGraftPoint* point = stack_.ListenTcp(13);
  ASSERT_EQ(point->AddHandler(EchoHandler(), 1), Status::kOk);

  // Second handler: a logger that always aborts (bad internal call).
  const uint32_t send = host_.IdOf("net.send").value();
  Asm a("aborter");
  a.Mov(R6, R0);
  a.LoadImm(R1, 1);  // Arena addr 1... then wild indirect call:
  a.LoadImm(R7, 0xffff);
  a.CallR(R7);
  a.Call(send);
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(point->AddHandler(std::make_shared<Graft>("aborter", *inst, kUser, 4096), 2),
            Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnection(13, "hi");
  ASSERT_TRUE(conn.ok());
  // Echo handler's reply survives its own committed transaction even though
  // the second handler aborted.
  EXPECT_EQ(stack_.FindConnection(*conn)->tx, "hi");
  EXPECT_EQ(point->handler_count(), 1u);
}

TEST_F(NetTest, AsyncDeliveryCompletesAfterDrain) {
  EventGraftPoint* point = stack_.ListenTcp(8080);
  auto handler = EchoHandler();
  handler->account().SetLimit(ResourceType::kThreads, 4);
  ASSERT_EQ(point->AddHandler(handler, 1), Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnectionAsync(8080, "async!");
  ASSERT_TRUE(conn.ok());
  stack_.DrainEvents();
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tx, "async!");
  EXPECT_FALSE(c->open);
  EXPECT_EQ(stack_.stats().bytes_sent, 6u);
}

TEST_F(NetTest, AsyncTrafficFromManyDispatchersNoEventLost) {
  // Route a burst of UDP traffic through the pool from several dispatcher
  // threads; every packet must be answered exactly once. A packet's id is
  // valid only until the port's next completed delivery, so the handler
  // records (id, reply) during its own delivery. It is native and touches
  // only its own connection, so concurrent invocations (pool workers +
  // inline fallbacks) share nothing but the record — a VM graft would share
  // its one arena across workers.
  std::mutex answers_mutex;
  std::vector<std::pair<ConnectionId, std::string>> answers;
  EventGraftPoint* point = stack_.ListenUdp(5353);
  auto handler = std::make_shared<Graft>(
      "native-echo",
      [&](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        Connection* c = stack_.FindConnection(args[0]);
        if (c == nullptr) {
          return Status::kNotFound;
        }
        c->tx = c->rx;
        std::lock_guard<std::mutex> guard(answers_mutex);
        answers.emplace_back(args[0], c->tx);
        return 0ull;
      },
      GraftIdentity{0, true});
  handler->account().SetLimit(ResourceType::kThreads, 8);
  ASSERT_EQ(point->AddHandler(handler, 1), Status::kOk);

  constexpr int kDispatchers = 4;
  constexpr int kPerDispatcher = 25;
  constexpr uint64_t kPackets = uint64_t{kDispatchers} * kPerDispatcher;
  std::vector<std::vector<ConnectionId>> ids(kDispatchers);
  std::vector<std::thread> dispatchers;
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([this, d, &ids] {
      for (int i = 0; i < kPerDispatcher; ++i) {
        Result<ConnectionId> pkt = stack_.DeliverPacketAsync(5353, "ping");
        EXPECT_TRUE(pkt.ok());
        if (pkt.ok()) {
          ids[static_cast<size_t>(d)].push_back(*pkt);
        }
      }
    });
  }
  for (auto& t : dispatchers) {
    t.join();
  }
  stack_.DrainEvents();

  EXPECT_EQ(stack_.stats().packets, kPackets);
  std::set<ConnectionId> delivered;
  for (const auto& per_thread : ids) {
    delivered.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(delivered.size(), kPackets) << "ids must be unique";
  std::set<ConnectionId> answered;
  for (const auto& [id, reply] : answers) {
    EXPECT_TRUE(answered.insert(id).second) << "connection " << id << " answered twice";
    EXPECT_EQ(reply, "ping") << "connection " << id;
  }
  EXPECT_EQ(answered, delivered) << "every packet answered";
  EXPECT_EQ(point->stats().handler_runs, kPackets);
}

TEST_F(NetTest, ConnectionTableStaysBounded) {
  // Connections are recycled per port: 50k deliveries over 8 ports leave
  // one live connection per port — the latest, still holding its reply.
  constexpr int kPorts = 8;
  constexpr int kDeliveries = 50'000;
  for (int p = 0; p < kPorts; ++p) {
    ASSERT_EQ(stack_.ListenTcp(static_cast<uint16_t>(100 + p))->AddHandler(EchoHandler(), 1),
              Status::kOk);
  }
  ConnectionId last[kPorts] = {};
  std::string last_request[kPorts];
  for (int i = 0; i < kDeliveries; ++i) {
    const int p = i % kPorts;
    std::string request = "req " + std::to_string(i);
    Result<ConnectionId> conn =
        stack_.DeliverConnection(static_cast<uint16_t>(100 + p), request);
    ASSERT_TRUE(conn.ok());
    last[p] = *conn;
    last_request[p] = std::move(request);
  }
  const NetStack::Stats stats = stack_.stats();
  EXPECT_EQ(stats.connections, static_cast<uint64_t>(kDeliveries));
  EXPECT_LE(stats.live_connections, static_cast<uint64_t>(kPorts));
  for (int p = 0; p < kPorts; ++p) {
    Connection* c = stack_.FindConnection(last[p]);
    ASSERT_NE(c, nullptr) << "port " << 100 + p;
    EXPECT_EQ(c->tx, last_request[p]);
  }
}

TEST_F(NetTest, StaleIdReturnsNullAfterSlotReuse) {
  ASSERT_EQ(stack_.ListenTcp(7)->AddHandler(EchoHandler(), 1), Status::kOk);
  Result<ConnectionId> first = stack_.DeliverConnection(7, "one");
  ASSERT_TRUE(first.ok());
  Connection* recycled = stack_.FindConnection(*first);
  ASSERT_NE(recycled, nullptr);

  // The next completed delivery on the port reclaims the first connection.
  ASSERT_TRUE(stack_.DeliverConnection(7, "two").ok());
  EXPECT_EQ(stack_.FindConnection(*first), nullptr);

  // The third reuses its slot under a new generation: the old id still
  // resolves to nothing, and the old pointer names the live connection.
  Result<ConnectionId> third = stack_.DeliverConnection(7, "three");
  ASSERT_TRUE(third.ok());
  EXPECT_NE(*third, *first);
  EXPECT_EQ(stack_.FindConnection(*third), recycled);
  EXPECT_EQ(stack_.FindConnection(*first), nullptr);
  EXPECT_EQ(recycled->tx, "three");
  EXPECT_EQ(stack_.stats().live_connections, 1u);
}

TEST_F(NetTest, AsyncDeliveryRetiresOnlyAfterHandlersFinish) {
  // Two pool handlers; the second is held at a gate. The delivery must not
  // complete (and so must not reclaim the port's previous connection) until
  // both have finished.
  std::atomic<bool> open_gate{true};
  std::atomic<int> gated_started{0};
  std::atomic<int> quick_runs{0};
  EventGraftPoint* point = stack_.ListenTcp(8081);
  auto quick = std::make_shared<Graft>(
      "quick",
      [&](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        quick_runs.fetch_add(1);
        return 0ull;
      },
      GraftIdentity{0, true});
  auto gated = std::make_shared<Graft>(
      "gated",
      [&](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        gated_started.fetch_add(1);
        while (!open_gate.load()) {
          std::this_thread::yield();
        }
        Connection* c = stack_.FindConnection(args[0]);
        if (c == nullptr) {
          return Status::kNotFound;
        }
        c->tx = "done";
        return 0ull;
      },
      GraftIdentity{0, true});
  quick->account().SetLimit(ResourceType::kThreads, 4);
  gated->account().SetLimit(ResourceType::kThreads, 4);
  ASSERT_EQ(point->AddHandler(quick, 1), Status::kOk);
  ASSERT_EQ(point->AddHandler(gated, 2), Status::kOk);

  Result<ConnectionId> before = stack_.DeliverConnectionAsync(8081, "a");
  ASSERT_TRUE(before.ok());
  stack_.DrainEvents();
  ASSERT_NE(stack_.FindConnection(*before), nullptr);

  open_gate.store(false);
  Result<ConnectionId> held = stack_.DeliverConnectionAsync(8081, "b");
  ASSERT_TRUE(held.ok());
  while (gated_started.load() < 2 || quick_runs.load() < 2) {
    std::this_thread::yield();
  }
  // One handler done, one running: the delivery is still in flight.
  EXPECT_NE(stack_.FindConnection(*before), nullptr);
  EXPECT_NE(stack_.FindConnection(*held), nullptr);
  EXPECT_EQ(stack_.stats().live_connections, 2u);

  open_gate.store(true);
  stack_.DrainEvents();
  EXPECT_EQ(stack_.FindConnection(*before), nullptr);
  Connection* c = stack_.FindConnection(*held);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tx, "done");
  EXPECT_EQ(stack_.stats().live_connections, 1u);
}

TEST_F(NetTest, AsyncPacketWithoutHandlerStillRetires) {
  EventGraftPoint* point = stack_.ListenUdp(6000);
  Result<ConnectionId> first = stack_.DeliverPacketAsync(6000, "x");
  Result<ConnectionId> second = stack_.DeliverPacketAsync(6000, "y");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  stack_.DrainEvents();
  EXPECT_EQ(stack_.FindConnection(*first), nullptr);
  ASSERT_NE(stack_.FindConnection(*second), nullptr);
  EXPECT_EQ(stack_.FindConnection(*second)->rx, "y");
  EXPECT_EQ(stack_.stats().live_connections, 1u);
  EXPECT_EQ(point->stats().events, 2u);
}

}  // namespace
}  // namespace vino
