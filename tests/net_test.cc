// Network substrate tests: ports, connections, the net.* host interface,
// bandwidth accounting, and transactional retraction of partial responses.

#include <gtest/gtest.h>

#include <thread>
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
  // threads; every packet must be answered after the drain. The handler is
  // native and touches only its own connection, so concurrent invocations
  // (pool workers + inline fallbacks) never share mutable state — a VM
  // graft would share its one arena across workers.
  EventGraftPoint* point = stack_.ListenUdp(5353);
  auto handler = std::make_shared<Graft>(
      "native-echo",
      [this](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        Connection* c = stack_.FindConnection(args[0]);
        if (c == nullptr) {
          return Status::kNotFound;
        }
        c->tx = c->rx;
        return 0ull;
      },
      GraftIdentity{0, true});
  handler->account().SetLimit(ResourceType::kThreads, 8);
  ASSERT_EQ(point->AddHandler(handler, 1), Status::kOk);

  constexpr int kDispatchers = 4;
  constexpr int kPerDispatcher = 25;
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

  EXPECT_EQ(stack_.stats().packets,
            static_cast<uint64_t>(kDispatchers) * kPerDispatcher);
  for (const auto& per_thread : ids) {
    for (const ConnectionId id : per_thread) {
      Connection* c = stack_.FindConnection(id);
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->tx, "ping") << "connection " << id;
    }
  }
  const auto point_stats = point->stats();
  EXPECT_EQ(point_stats.handler_runs,
            static_cast<uint64_t>(kDispatchers) * kPerDispatcher);
}

}  // namespace
}  // namespace vino
