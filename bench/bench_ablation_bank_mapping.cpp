// Ablation: how the DRAM address mapping shapes the blue regime.
//
// DESIGN.md calls out three mapping ingredients: (1) the XOR bank hash
// (vs the lockstep-prone linear mapping), (2) the bank-interleave
// granularity, and (3) the adaptive page-close policy. This bench
// quantifies each one's contribution to quadrant-1 C2M degradation and the
// row-miss inflation.
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "workloads/workloads.hpp"

using namespace hostnet;

namespace {

struct Variant {
  std::string name;
  core::HostConfig host;
};

void run_variants(const std::vector<Variant>& variants) {
  const auto opt = core::default_run_options();
  Table t({"variant", "iso C2M GB/s (2c)", "C2M degr (2c)", "rowmiss iso", "rowmiss colo",
           "P2M degr"});
  core::Plan plan;
  std::vector<core::ColocationRef> refs;
  for (const auto& v : variants) {
    core::C2MSpec c2m;
    c2m.workload = workloads::c2m_read(workloads::c2m_core_region(0));
    c2m.cores = 2;
    core::P2MSpec p2m;
    p2m.storage = workloads::fio_p2m_write(v.host, workloads::p2m_region());
    refs.push_back(plan.colocation(v.host, c2m, p2m, opt));
  }
  const auto out = core::execute(plan);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto o = out[refs[i]];
    t.row({variants[i].name, Table::num(o.iso_c2m.c2m_score, 1),
           Table::num(o.c2m_degradation()) + "x",
           Table::pct(o.iso_c2m.metrics.row_miss_ratio_read * 100),
           Table::pct(o.colo.metrics.row_miss_ratio_read * 100),
           Table::num(o.p2m_degradation()) + "x"});
  }
  t.print();
}

}  // namespace

int main() {
  banner("Ablation: bank hash and interleave granularity (quadrant 1, 2 C2M cores)");
  std::vector<Variant> variants;
  {
    Variant v{"xor-hash, 8KB bank chunks (default)", core::cascade_lake()};
    variants.push_back(v);
  }
  {
    Variant v{"linear bank map (lockstep streams)", core::cascade_lake()};
    v.host.dram.hash = dram::BankHash::kLinear;
    variants.push_back(v);
  }
  {
    Variant v{"xor-hash, 2KB bank chunks", core::cascade_lake()};
    v.host.dram.bank_interleave_bytes = 2048;
    variants.push_back(v);
  }
  {
    Variant v{"xor-hash, 256B bank chunks (fine cyclic)", core::cascade_lake()};
    v.host.dram.bank_interleave_bytes = 256;
    variants.push_back(v);
  }
  {
    Variant v{"no page-close policy (rows stay open)", core::cascade_lake()};
    v.host.mc.timing.t_page_close_idle = ms(10);
    variants.push_back(v);
  }
  {
    Variant v{"aggressive page close (40 ns idle)", core::cascade_lake()};
    v.host.mc.timing.t_page_close_idle = ns(40);
    variants.push_back(v);
  }
  run_variants(variants);
  std::printf("\nTakeaways: the linear map collapses isolated multi-stream throughput\n"
              "(lockstep bank conflicts); fine cyclic interleave destroys row locality\n"
              "for any interleaved streams; disabling the page-close policy removes\n"
              "most of the colocation row-miss inflation (the drain-interruption\n"
              "mechanism of section 5.1).\n");
  return 0;
}
