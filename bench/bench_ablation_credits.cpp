// Ablation: domain credit sizing -- a direct probe of the paper's
// T <= C x 64 / L law.
//
// (a) LFB size sweep: isolated C2M-Read throughput scales linearly with
//     credits until the channel saturates.
// (b) IIO write-credit sweep: P2M-Write tolerates blue-regime latency
//     inflation only while credits exceed the needed C = T*L/64; shrinking
//     the buffer below ~65 credits makes "unaffected" P2M degrade.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

int main() {
  const auto opt = core::default_run_options();

  banner("Ablation (a): LFB credits vs isolated single-core C2M-Read throughput");
  {
    Table t({"LFB credits", "throughput GB/s", "latency (ns)", "law C*64/L"});
    const std::vector<std::uint32_t> lfbs{4, 8, 10, 12, 16, 24, 48};
    core::Plan plan;  // window i: lfbs[i] credits
    for (std::uint32_t lfb : lfbs) {
      core::HostConfig host = core::cascade_lake();
      host.core.lfb_entries = lfb;
      core::C2MSpec c2m;
      c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
      c2m.cores = 1;
      plan.add(host, c2m, std::nullopt, opt);
    }
    const auto out = core::execute(plan);
    for (std::size_t i = 0; i < lfbs.size(); ++i) {
      const std::uint32_t lfb = lfbs[i];
      const auto& m = out[i].metrics;
      t.row({std::to_string(lfb), Table::num(m.c2m_app_gbps),
             Table::num(m.lfb_latency_ns, 1),
             Table::num(core::max_throughput_gbps(lfb, m.lfb_latency_ns))});
    }
    t.print();
  }

  banner("Ablation (b): IIO write credits vs P2M-Write tolerance (quadrant 1, 4 cores)");
  {
    Table t({"IIO wr credits", "P2M iso GB/s", "P2M colo GB/s", "P2M degr",
             "credits needed (T*L/64)"});
    const std::vector<std::uint32_t> credit_counts{32, 48, 64, 80, 92, 128};
    core::Plan plan;
    std::vector<core::ColocationRef> refs;
    for (std::uint32_t credits : credit_counts) {
      core::HostConfig host = core::cascade_lake();
      host.iio.write_credits = credits;
      core::C2MSpec c2m;
      c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
      c2m.cores = 4;
      core::P2MSpec p2m;
      p2m.storage = workloads::fio_p2m_write(host, workloads::p2m_region());
      refs.push_back(plan.colocation(host, c2m, p2m, opt));
    }
    const auto out = core::execute(plan);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const std::uint32_t credits = credit_counts[i];
      const auto o = out[refs[i]];
      t.row({std::to_string(credits), Table::num(o.iso_p2m.p2m_score, 2),
             Table::num(o.colo.p2m_score, 2), Table::num(o.p2m_degradation()) + "x",
             Table::num(core::credits_needed(o.iso_p2m.p2m_score,
                                             o.colo.metrics.p2m_write.latency_ns),
                        1)});
    }
    t.print();
  }
  std::printf("\nTakeaway: spare credits are exactly what shields P2M in the blue\n"
              "regime; once C falls below T*L/64 the 'unaffected' side degrades.\n");
  return 0;
}
