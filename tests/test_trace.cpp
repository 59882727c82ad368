// Tests for the chrome-tracing facility.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/host_system.hpp"
#include "core/parallel.hpp"
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Tracer, HostTracerCapturesSimulationEvents) {
  const char* path = "/tmp/hostnet_test_trace2.json";
  {
    Tracer t(path);
    const auto hc = core::cascade_lake();
    core::HostSystem host(hc);
    host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
    host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
    host.run(us(50), us(1));
    host.sim().set_tracer(&t);
    host.run_more(us(20));
    host.sim().set_tracer(nullptr);
    EXPECT_GT(t.size(), 100u);  // c2m-read spans + p2m-write spans + drains
    t.flush();
  }
  const std::string s = read_file(path);
  EXPECT_NE(s.find("c2m-read"), std::string::npos);
  EXPECT_NE(s.find("p2m-write"), std::string::npos);
  EXPECT_NE(s.find("write-drain"), std::string::npos);
  std::remove(path);
}

TEST(Tracer, NoTracerMeansNoEvents) {
  const auto hc = core::cascade_lake();
  core::HostSystem host(hc);
  ASSERT_EQ(host.sim().tracer(), nullptr);
  host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
  host.run(us(20), us(20));  // must not crash without a tracer
  SUCCEED();
}

// Two hosts on two workers, each with its own sink: a C2M-only host and a
// P2M-only host. Neither file may hold the other host's spans.
TEST(Tracer, ParallelHostsTraceToTheirOwnSinks) {
  const std::string dir = ::testing::TempDir();
  const std::string paths[2] = {dir + "hostnet_trace_c2m.json", dir + "hostnet_trace_p2m.json"};
  core::run_parallel(
      2,
      [&paths](std::size_t i) {
        Tracer t(paths[i]);
        const auto hc = core::cascade_lake();
        core::HostSystem host(hc);
        if (i == 0)
          host.add_core(workloads::c2m_read(workloads::c2m_core_region(0)));
        else
          host.add_storage(workloads::fio_p2m_write(hc, workloads::p2m_region()));
        host.sim().set_tracer(&t);
        host.run(us(20), us(20));
        host.sim().set_tracer(nullptr);
      },
      2);
  const std::string c2m = read_file(paths[0]);
  const std::string p2m = read_file(paths[1]);
  EXPECT_NE(c2m.find("c2m-read"), std::string::npos);
  EXPECT_EQ(c2m.find("p2m-write"), std::string::npos);
  EXPECT_NE(p2m.find("p2m-write"), std::string::npos);
  EXPECT_EQ(p2m.find("c2m-read"), std::string::npos);
  for (const std::string& p : paths) std::remove(p.c_str());
}

}  // namespace
}  // namespace hostnet::sim
