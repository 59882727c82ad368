// Tests for the chrome-tracing facility.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/host_system.hpp"
#include "sim/trace.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::sim {
namespace {

TEST(Tracer, WritesWellFormedJson) {
  const char* path = "/tmp/hostnet_test_trace.json";
  {
    Tracer t(path);
    t.complete_event("span", "cat", ns(10), ns(5), 3);
    t.instant("marker", "mc", ns(20), 1);
    t.counter("occ", ns(30), 7.5);
    t.flush();
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  EXPECT_EQ(s.front(), '[');
  EXPECT_NE(s.find("\"name\":\"span\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"C\""), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  long depth = 0;
  for (char c : s) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path);
}

TEST(Tracer, CountsAndReportsEventsPastTheCap) {
  const std::string path = ::testing::TempDir() + "hostnet_test_trace_cap.json";
  testing::internal::CaptureStderr();
  {
    Tracer t(path, /*max_events=*/4);
    for (int i = 0; i < 10; ++i) t.instant("tick", "cat", ns(i), 0);
    t.counter("occ", ns(11), 1.0);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 7u);
    t.flush();
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("dropped 7 events"), std::string::npos) << err;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  EXPECT_NE(s.find("\"dropped_events\":7"), std::string::npos);
  EXPECT_NE(s.find("\"max_events\":4"), std::string::npos);
  std::remove(path.c_str());

  // A trace within its cap reports zero drops and prints no warning.
  testing::internal::CaptureStderr();
  {
    Tracer t(path, 4);
    t.instant("tick", "cat", ns(1), 0);
    EXPECT_EQ(t.dropped(), 0u);
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  std::ifstream in2(path);
  std::stringstream ss2;
  ss2 << in2.rdbuf();
  EXPECT_NE(ss2.str().find("\"dropped_events\":0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, GlobalHookCapturesSimulationEvents) {
  const char* path = "/tmp/hostnet_test_trace2.json";
  {
    Tracer t(path);
    const auto hc = core::cascade_lake();
    core::HostSystem host(hc);
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
    host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
    host.run(us(50), us(1));
    Tracer::set_global(&t);
    host.run_more(us(20));
    Tracer::set_global(nullptr);
    EXPECT_GT(t.size(), 100u);  // c2m-read spans + p2m-write spans + drains
    t.flush();
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  EXPECT_NE(s.find("c2m-read"), std::string::npos);
  EXPECT_NE(s.find("p2m-write"), std::string::npos);
  EXPECT_NE(s.find("write-drain"), std::string::npos);
  std::remove(path);
}

TEST(Tracer, NoGlobalMeansNoOverheadNoEvents) {
  ASSERT_EQ(Tracer::global(), nullptr);
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  host.run(us(20), us(20));  // must not crash without a tracer
  SUCCEED();
}

}  // namespace
}  // namespace hostnet::sim
