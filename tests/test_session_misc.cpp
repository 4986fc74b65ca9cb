// Session-level odds and ends: test(), scatter receives (shorter than the
// registered segments, filled by completion, posted from several threads)
// and deadlock detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "core/platform.hpp"
#include "util/panic.hpp"

namespace {

using namespace nmad;
using namespace nmad::core;

TEST(Session, TestReflectsCompletion) {
  TwoNodePlatform p(paper_platform("single_rail"));
  std::vector<std::byte> payload(100, std::byte{1});
  std::vector<std::byte> sink(100);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  EXPECT_FALSE(Session::test(send));
  EXPECT_FALSE(Session::test(recv));
  p.b().wait(recv);
  p.a().wait(send);
  EXPECT_TRUE(Session::test(send));
  EXPECT_TRUE(Session::test(recv));
}

TEST(Session, UnpackScattersShorterMessageIntoLeadingSegments) {
  // The sender ships 150 bytes; the receiver registered 100+100. The first
  // segment fills fully, the second only halfway.
  TwoNodePlatform p(paper_platform("single_rail"));
  std::vector<std::byte> payload(150, std::byte{0x5e});
  std::vector<std::byte> out1(100, std::byte{0}), out2(100, std::byte{0});

  auto unpack = p.b().unpack(p.gate_ba(), 0);
  unpack.add(out1).add(out2);
  auto recv = unpack.submit();
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  p.b().wait(recv);
  p.a().wait(send);

  EXPECT_EQ(recv->received_len(), 150u);
  EXPECT_EQ(out1, std::vector<std::byte>(100, std::byte{0x5e}));
  EXPECT_TRUE(std::equal(out2.begin(), out2.begin() + 50,
                         std::vector<std::byte>(50, std::byte{0x5e}).begin()));
  EXPECT_EQ(out2[50], std::byte{0});  // beyond the message: untouched
}

TEST(Session, UnpackSegmentsAreFilledWhenTestReportsCompletion) {
  // The receiver never waits on the unpack: test() alone must not report
  // completion before the segments hold the payload.
  TwoNodePlatform p(pin_serial(paper_platform("single_rail")));
  std::vector<std::byte> payload(150, std::byte{0x5e});
  std::vector<std::byte> out1(100, std::byte{0}), out2(100, std::byte{0});

  auto unpack = p.b().unpack(p.gate_ba(), 0);
  unpack.add(out1).add(out2);
  auto recv = unpack.submit();
  auto send = p.a().isend(p.gate_ab(), 0, payload);
  p.a().wait(send);
  p.world().engine().run();

  ASSERT_TRUE(Session::test(recv));
  EXPECT_EQ(recv->received_len(), 150u);
  EXPECT_EQ(out1, std::vector<std::byte>(100, std::byte{0x5e}));
  EXPECT_EQ(out2[0], std::byte{0x5e});
  EXPECT_EQ(out2[49], std::byte{0x5e});
  EXPECT_EQ(out2[50], std::byte{0});
}

TEST(Session, ConcurrentUnpacksOnOneThreadedSession) {
  // Two app threads post unpack receives on b's session at once and poll
  // them with test(): posting must not race, and each completion must
  // already carry the scattered bytes.
  PlatformConfig cfg = paper_platform("aggreg_greedy");
  cfg.progress_mode = ProgressMode::kThreaded;
  TwoNodePlatform p(std::move(cfg));
  constexpr int kMessages = 40;

  auto worker = [&p](Tag tag) {
    for (int i = 0; i < kMessages; ++i) {
      const auto fill = static_cast<std::byte>(100 * tag + i);
      std::vector<std::byte> payload(300, fill);
      std::vector<std::byte> out1(128, std::byte{0}), out2(256, std::byte{0});
      auto unpack = p.b().unpack(p.gate_ba(), tag);
      unpack.add(out1).add(out2);
      auto recv = unpack.submit();
      auto send = p.a().isend(p.gate_ab(), tag, payload);
      while (!Session::test(recv)) std::this_thread::yield();
      EXPECT_EQ(recv->received_len(), 300u);
      EXPECT_EQ(out1, std::vector<std::byte>(128, fill));
      EXPECT_TRUE(std::all_of(out2.begin(), out2.begin() + 172,
                              [fill](std::byte b) { return b == fill; }));
      EXPECT_EQ(out2[172], std::byte{0});  // beyond the message: untouched
      p.a().wait(send);
    }
  };
  std::thread t1(worker, Tag{1});
  std::thread t2(worker, Tag{2});
  t1.join();
  t2.join();
}

TEST(Session, WaitOnUnmatchableRequestPanics) {
  util::set_panic_hook(+[](std::string_view msg) {
    throw std::runtime_error(std::string(msg));
  });
  TwoNodePlatform p(paper_platform("single_rail"));
  std::vector<std::byte> sink(10);
  auto recv = p.b().irecv(p.gate_ba(), 0, sink);
  // Nobody ever sends: the engine drains and wait() must detect the
  // deadlock rather than spin or return silently.
  EXPECT_THROW(p.b().wait(recv), std::runtime_error);
  util::set_panic_hook(nullptr);
}

}  // namespace
