// Host configurations modeling the paper's two testbeds (Table 1).
//
//               Ice Lake              Cascade Lake
//   CPU         Xeon Platinum 8362    Xeon Gold 6234
//   Cores       32 @ 2.8 GHz          8 @ 3.3 GHz
//   LLC         48 MB                 24 MB
//   DRAM        4 x 3200 MHz DDR4     2 x 2933 MHz DDR4
//   DRAM BW     102.4 GB/s            46.9 GB/s
//   PCIe        8 x PM173X NVMe       4 x P5800X NVMe
//   PCIe BW     32 GB/s               16 GB/s
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include "cha/cha.hpp"
#include "common/fields.hpp"
#include "core/domains.hpp"
#include "cpu/core.hpp"
#include "dram/address_map.hpp"
#include "dram/timing.hpp"
#include "iio/iio.hpp"
#include "mc/channel.hpp"

namespace hostnet::core {

struct DramLayout {
  std::uint32_t channels = 2;
  std::uint32_t banks_per_channel = 32;
  std::uint32_t row_bytes = 8192;
  std::uint32_t channel_interleave_bytes = 256;
  std::uint32_t bank_interleave_bytes = 8192;  ///< one row per bank visit
  dram::BankHash hash = dram::BankHash::kXorHash;
  HOSTNET_FIELDS(DramLayout, channels, banks_per_channel, row_bytes, channel_interleave_bytes,
                 bank_interleave_bytes, hash)
};

struct HostConfig {
  std::string name = "cascade-lake";
  std::uint32_t total_cores = 8;
  double core_ghz = 3.3;
  DramLayout dram{};
  mc::ChannelConfig mc{};
  cha::ChaConfig cha{};
  cpu::CoreConfig core{};
  iio::IioConfig iio{};
  double pcie_write_gb_per_s = 14.0;  ///< effective DMA-write (storage read) BW
  double pcie_read_gb_per_s = 12.8;   ///< effective DMA-read (storage write) BW
  HOSTNET_FIELDS(HostConfig, name, total_cores, core_ghz, dram, mc, cha, core, iio,
                 pcie_write_gb_per_s, pcie_read_gb_per_s)

  /// Theoretical peak memory bandwidth (GB/s).
  double dram_peak_gb_per_s() const {
    return static_cast<double>(dram.channels) * static_cast<double>(kCachelineBytes) *
           1000.0 / static_cast<double>(mc.timing.t_trans);
  }

  /// Sanity-check the configuration; returns an empty string when valid,
  /// else a human-readable description of the first problem found.
  std::string validate() const {
    auto pow2 = [](std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; };
    if (!pow2(dram.channels)) return "dram.channels must be a power of two";
    if (!pow2(dram.banks_per_channel)) return "dram.banks_per_channel must be a power of two";
    if (!pow2(dram.row_bytes)) return "dram.row_bytes must be a power of two";
    if (!pow2(dram.channel_interleave_bytes) || dram.channel_interleave_bytes < 64)
      return "dram.channel_interleave_bytes must be a power of two >= 64";
    if (!pow2(dram.bank_interleave_bytes) || dram.bank_interleave_bytes < 64)
      return "dram.bank_interleave_bytes must be a power of two >= 64";
    if (dram.bank_interleave_bytes > dram.row_bytes)
      return "dram.bank_interleave_bytes cannot exceed dram.row_bytes";
    if (mc.wpq_high_wm >= mc.wpq_capacity) return "wpq_high_wm must be below wpq_capacity";
    if (mc.wpq_low_wm >= mc.wpq_high_wm) return "wpq_low_wm must be below wpq_high_wm";
    if (mc.rpq_capacity == 0 || mc.wpq_capacity == 0) return "MC queues need capacity";
    // SlotQueue indexes its slots with 16 bits and reserves the top value.
    if (mc.rpq_capacity >= mc::SlotQueue::kNil || mc.wpq_capacity >= mc::SlotQueue::kNil)
      return "mc.rpq_capacity and mc.wpq_capacity must be below " +
             std::to_string(mc::SlotQueue::kNil) + " (the MC slot arena's 16-bit index)";
    if (mc.prep_window == 0) return "mc.prep_window must be at least 1";
    if (core.lfb_entries == 0) return "core.lfb_entries must be positive";
    if (std::uint64_t{core.lfb_entries} + core.prefetch_extra > cpu::CoreConfig::kMaxLfbSlots)
      return "core.lfb_entries + core.prefetch_extra must be at most " +
             std::to_string(cpu::CoreConfig::kMaxLfbSlots);
    if (iio.write_credits == 0 || iio.read_credits == 0) return "IIO needs credits";
    if (cha.read_tor == 0 || cha.write_tracker == 0) return "CHA needs tracker entries";
    if (cha.write_tracker_peripheral_reserve > cha.write_tracker)
      return "peripheral reserve exceeds the write tracker";
    if (cha.read_fwd_window == 0 || cha.write_fwd_window == 0)
      return "cha.read_fwd_window and cha.write_fwd_window must be at least 1";
    if (cha.ddio && cha.ddio_ways == 0) return "cha.ddio_ways must be at least 1 when DDIO is on";
    if (cha.ddio && cha.ddio_capacity_bytes / kCachelineBytes < cha.ddio_ways)
      return "cha.ddio_capacity_bytes must hold at least one 64-byte line per DDIO way";
    // Every double knob is a rate (GHz, GB/s); every Tick is a latency or
    // age, and one above a second would overflow the clock once added to it.
    std::string err;
    fields::for_each_leaf(*this, [&err](const std::string& path, const auto& v) {
      using T = std::decay_t<decltype(v)>;
      if (!err.empty()) return;
      if constexpr (std::is_same_v<T, double>) {
        if (!(std::isfinite(v) && v > 0)) err = path + " must be finite and positive";
      } else if constexpr (std::is_same_v<T, Tick>) {
        if (v > kSecond) err = path + " must be at most 1 s (10^12 ps)";
      }
    });
    if (!err.empty()) return err;
    if (mc.timing.t_trans <= 0) return "tTrans must be positive";
    return {};
  }

  dram::AddressMap make_address_map() const {
    return dram::AddressMap(dram.channels, dram.banks_per_channel, dram.row_bytes,
                            dram.channel_interleave_bytes, dram.hash,
                            dram.bank_interleave_bytes);
  }
};

/// Static specs of the four bottleneck domains for this host (paper
/// section 4): credits come from the configured pool capacities, unloaded
/// latencies from the paper's measurements (Table 2). The C2M domains' pools
/// are per-core LFBs, so `c2m_cores` scales their credits. A latency of 0
/// means "measure it" -- the paper derives P2M-Read's unloaded latency from
/// the testbed rather than quoting a constant.
inline std::array<DomainSpec, mem::kNumTrafficClasses> domain_specs(
    const HostConfig& c, std::uint32_t c2m_cores = 1) {
  std::array<DomainSpec, mem::kNumTrafficClasses> specs{};
  auto& cr = specs[static_cast<std::size_t>(Domain::kC2MRead)];
  cr.domain = Domain::kC2MRead;
  cr.credits = static_cast<double>(c2m_cores * c.core.lfb_entries);
  cr.unloaded_latency_ns = 70;
  cr.includes_dram = true;
  auto& cw = specs[static_cast<std::size_t>(Domain::kC2MWrite)];
  cw.domain = Domain::kC2MWrite;
  cw.credits = static_cast<double>(c2m_cores * c.core.lfb_entries);
  cw.unloaded_latency_ns = 10;
  cw.includes_dram = false;  // ends at the CHA acknowledgment
  auto& pr = specs[static_cast<std::size_t>(Domain::kP2MRead)];
  pr.domain = Domain::kP2MRead;
  pr.credits = static_cast<double>(c.iio.read_credits);
  pr.unloaded_latency_ns = 0;
  pr.includes_dram = true;
  auto& pw = specs[static_cast<std::size_t>(Domain::kP2MWrite)];
  pw.domain = Domain::kP2MWrite;
  pw.credits = static_cast<double>(c.iio.write_credits);
  pw.unloaded_latency_ns = 300;
  pw.includes_dram = false;  // ends at WPQ admission
  return specs;
}

/// Cascade Lake testbed: 8 cores, 2x DDR4-2933 (46.9 GB/s), PCIe ~16 GB/s.
/// HostConfig's defaults are this testbed.
inline HostConfig cascade_lake() { return HostConfig{}; }

/// Ice Lake testbed: 32 cores, 4x DDR4-3200 (102.4 GB/s), PCIe ~32 GB/s.
/// DDIO is permanently enabled on this platform (paper section 2.1).
inline HostConfig ice_lake() {
  HostConfig c;
  c.name = "ice-lake";
  c.total_cores = 32;
  c.core_ghz = 2.8;
  c.dram.channels = 4;
  c.mc.timing = dram::ddr4_3200();
  c.pcie_write_gb_per_s = 28.0;
  c.pcie_read_gb_per_s = 25.0;
  c.iio.write_credits = 184;  // two IIO stacks' worth of write buffer
  c.iio.read_credits = 384;
  c.cha.read_tor = 512;       // more slices -> more tracker entries
  c.cha.write_tracker = 192;
  c.cha.ddio_capacity_bytes = 8ull << 20;
  return c;
}

}  // namespace hostnet::core
