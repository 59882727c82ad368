#include "fleet/scenario.hpp"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "net/rdma.hpp"
#include "net/tcp_stack.hpp"
#include "workloads/workloads.hpp"

namespace hostnet::fleet {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' && line[j] != '#') ++j;
    toks.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

/// An unsigned integer of at most `max`: no sign, no wrap-around, no
/// truncation into a narrower field.
std::uint64_t parse_u64(std::size_t line, const std::string& tok, const std::string& what,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* last = tok.data() + tok.size();
  const auto [end, ec] = std::from_chars(tok.data(), last, v);
  if (ec == std::errc::invalid_argument || end != last)
    throw ScenarioError(line, what + " expects an unsigned integer, got '" + tok + "'");
  if (ec == std::errc::result_out_of_range || v > max)
    throw ScenarioError(line, what + " must be at most " + std::to_string(max) + ", got '" +
                                  tok + "'");
  return v;
}

double parse_f64(std::size_t line, const std::string& tok, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0')
    throw ScenarioError(line, std::string(what) + " expects a number, got '" + tok + "'");
  return v;
}

/// A window length: the check default_run_options() applies to its
/// environment overrides, tagged with the scenario line.
Tick parse_window_us(std::size_t line, const std::string& tok, const char* what,
                     bool allow_zero) {
  const double v = parse_f64(line, tok, what);
  try {
    return core::window_ticks(v, allow_zero, std::string(what) + " '" + tok + "'");
  } catch (const std::invalid_argument& e) {
    throw ScenarioError(line, e.what());
  }
}

/// `set <key> <value>`: any numeric or bool HostConfig leaf, by its dotted
/// name in the field tables (`cha.ddio`, `mc.timing.t_trans`). Integers
/// (times in picoseconds) are unsigned and range-checked against the
/// field's type, bools are 0 or 1, doubles are left to validate() at `end`.
/// An unknown key is a line-tagged error, not a silently-ignored typo.
void set_host_field(std::size_t line, core::HostConfig& h, const std::string& key,
                    const std::string& val) {
  bool found = false;
  fields::for_each_leaf(h, [&](const std::string& path, auto& leaf) {
    if (path != key) return;
    found = true;
    using T = std::remove_reference_t<decltype(leaf)>;
    if constexpr (std::is_same_v<T, bool>) {
      if (val != "0" && val != "1")
        throw ScenarioError(line, key + " expects 0 or 1, got '" + val + "'");
      leaf = val == "1";
    } else if constexpr (std::is_integral_v<T>) {
      leaf = static_cast<T>(
          parse_u64(line, val, key, static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
    } else if constexpr (std::is_floating_point_v<T>) {
      leaf = parse_f64(line, val, key.c_str());
    } else {
      throw ScenarioError(line, "set key '" + key + "' is not settable");
    }
  });
  if (!found) throw ScenarioError(line, "unknown set key '" + key + "'");
}

/// C2M workload zoo lookup (workloads/workloads.hpp). Shared-graph
/// workloads (GAPBS) get the shared region and per_core_region=false, the
/// same wiring every figure bench uses.
void apply_c2m_workload(std::size_t line, core::C2MSpec& spec, const std::string& wl) {
  spec.per_core_region = true;
  if (wl == "c2m_read") spec.workload = workloads::c2m_read(workloads::c2m_core_region(0));
  else if (wl == "c2m_read_write")
    spec.workload = workloads::c2m_read_write(workloads::c2m_core_region(0));
  else if (wl == "redis_read") spec.workload = workloads::redis_read(workloads::c2m_core_region(0));
  else if (wl == "redis_write")
    spec.workload = workloads::redis_write(workloads::c2m_core_region(0));
  else if (wl == "gapbs_pr") {
    spec.workload = workloads::gapbs_pr(workloads::c2m_shared_region());
    spec.per_core_region = false;
  } else if (wl == "gapbs_bc") {
    spec.workload = workloads::gapbs_bc(workloads::c2m_shared_region());
    spec.per_core_region = false;
  } else {
    throw ScenarioError(line, "unknown c2m workload '" + wl +
                                  "' (want c2m_read, c2m_read_write, redis_read, "
                                  "redis_write, gapbs_pr or gapbs_bc)");
  }
  spec.name = wl;
}

iio::StorageConfig p2m_workload(std::size_t line, const core::HostConfig& host,
                                const std::string& wl) {
  if (wl == "fio_write") return workloads::fio_p2m_write(host, workloads::p2m_region());
  if (wl == "fio_read") return workloads::fio_p2m_read(host, workloads::p2m_region());
  if (wl == "fio_4k_qd1") return workloads::fio_4k_qd1(host, workloads::p2m_region());
  throw ScenarioError(line, "unknown p2m workload '" + wl +
                                "' (want fio_write, fio_read, fio_4k_qd1, rdma_write, "
                                "rdma_read, tcp_dctcp, tcp_bbr or tcp_davis)");
}

}  // namespace

/// Line-by-line recursive-descent-without-the-recursion parser; all state
/// lives here so Scenario itself stays a plain value type.
class ScenarioParser {
 public:
  explicit ScenarioParser(std::string_view text) : text_(text) {}

  Scenario run() {
    std::size_t lineno = 0;
    std::size_t pos = 0;
    while (pos <= text_.size()) {
      const std::size_t eol = text_.find('\n', pos);
      const std::string_view line =
          text_.substr(pos, (eol == std::string_view::npos ? text_.size() : eol) - pos);
      pos = (eol == std::string_view::npos) ? text_.size() + 1 : eol + 1;
      ++lineno;
      const std::vector<std::string> t = tokenize(line);
      if (t.empty()) continue;
      if (in_template_)
        template_directive(lineno, t);
      else
        top_directive(lineno, t);
    }
    finish();
    return std::move(sc_);
  }

 private:
  void top_directive(std::size_t line, const std::vector<std::string>& t) {
    const std::string& kw = t[0];
    if (kw == "fleet") {
      expect_args(line, t, 1, "fleet <name>");
      if (!sc_.name_.empty()) throw ScenarioError(line, "duplicate 'fleet' directive");
      sc_.name_ = t[1];
      return;
    }
    if (sc_.name_.empty())
      throw ScenarioError(line, "the first directive must be 'fleet <name>', got '" + kw + "'");
    if (kw == "seed") {
      expect_args(line, t, 1, "seed <u64>");
      sc_.seed_ = parse_u64(line, t[1], "seed");
      sc_.base_opt_.seed = sc_.seed_;
    } else if (kw == "warmup_us") {
      expect_args(line, t, 1, "warmup_us <f>");
      sc_.base_opt_.warmup = parse_window_us(line, t[1], "warmup_us", /*allow_zero=*/true);
    } else if (kw == "measure_us") {
      expect_args(line, t, 1, "measure_us <f>");
      sc_.base_opt_.measure = parse_window_us(line, t[1], "measure_us", /*allow_zero=*/false);
    } else if (kw == "measure_jitter_pct") {
      expect_args(line, t, 1, "measure_jitter_pct <f>");
      sc_.measure_jitter_pct_ = parse_f64(line, t[1], "measure_jitter_pct");
      if (!(sc_.measure_jitter_pct_ >= 0 && sc_.measure_jitter_pct_ <= 100))  // NaN too
        throw ScenarioError(line, "measure_jitter_pct must be in [0, 100]");
    } else if (kw == "template") {
      expect_args(line, t, 1, "template <name>");
      for (const HostTemplate& existing : sc_.templates_)
        if (existing.name == t[1])
          throw ScenarioError(line, "duplicate template '" + t[1] + "'");
      in_template_ = true;
      template_line_ = line;
      tmpl_ = HostTemplate{};
      tmpl_.name = t[1];
      tmpl_.seed = sc_.seed_;
      c2m_workload_.clear();
      p2m_workload_.clear();
      tcp_stack_override_.clear();
    } else if (kw == "hosts") {
      expect_args(line, t, 2, "hosts <count> <template>");
      HostGroup g;
      g.count = parse_u64(line, t[1], "hosts count");
      if (g.count == 0) throw ScenarioError(line, "hosts count must be positive");
      g.tmpl = find_template(line, t[2]);
      sc_.groups_.push_back(g);
    } else if (kw == "end") {
      throw ScenarioError(line, "'end' outside a template block");
    } else {
      throw ScenarioError(line, "unknown directive '" + kw + "'");
    }
  }

  void template_directive(std::size_t line, const std::vector<std::string>& t) {
    const std::string& kw = t[0];
    if (kw == "preset") {
      expect_args(line, t, 1, "preset <name>");
      if (t[1] == "cascade-lake") tmpl_.host = core::cascade_lake();
      else if (t[1] == "ice-lake") tmpl_.host = core::ice_lake();
      else
        throw ScenarioError(line, "unknown preset '" + t[1] + "' (want cascade-lake or ice-lake)");
      tmpl_.preset = t[1];
    } else if (kw == "set") {
      expect_args(line, t, 2, "set <key> <value>");
      if (t[1] == "tcp.stack") {
        // Transport knob, not a HostConfig field; resolved at 'end' against
        // the template's tcp_* p2m placement.
        tcp_stack_override_ = t[2];
        tcp_stack_line_ = line;
      } else {
        set_host_field(line, tmpl_.host, t[1], t[2]);
      }
    } else if (kw == "seed") {
      expect_args(line, t, 1, "seed <u64>");
      tmpl_.seed = parse_u64(line, t[1], "seed");
    } else if (kw == "c2m") {
      if (t.size() < 3 || t.size() > 4)
        throw ScenarioError(line, "usage: c2m <tenant> <workload> [cores=<n>]");
      if (tmpl_.c2m) throw ScenarioError(line, "template already has a c2m placement");
      core::C2MSpec spec;
      apply_c2m_workload(line, spec, t[2]);
      spec.cores = 1;
      if (t.size() == 4) {
        if (t[3].rfind("cores=", 0) != 0)
          throw ScenarioError(line, "expected cores=<n>, got '" + t[3] + "'");
        spec.cores = static_cast<std::uint32_t>(parse_u64(
            line, t[3].substr(6), "cores", std::numeric_limits<std::uint32_t>::max()));
        if (spec.cores == 0) throw ScenarioError(line, "cores must be positive");
      }
      tmpl_.c2m = spec;
      tmpl_.c2m_tenant = tenant_id(t[1]);
      c2m_workload_ = t[2];
    } else if (kw == "p2m") {
      expect_args(line, t, 2, "p2m <tenant> <workload>");
      if (tmpl_.p2m) throw ScenarioError(line, "template already has a p2m placement");
      p2m_workload_ = t[2];  // resolved at 'end' (needs final PCIe config)
      p2m_line_ = line;
      tmpl_.p2m_tenant = tenant_id(t[1]);
    } else if (kw == "end") {
      finish_template(line);
    } else {
      throw ScenarioError(line, "unknown template directive '" + kw + "'");
    }
  }

  void finish_template(std::size_t line) {
    if (!p2m_workload_.empty()) {
      core::P2MSpec spec;
      spec.name = p2m_workload_;
      if (std::optional<core::TcpSpec> tcp = net::tcp_p2m_workload(p2m_workload_)) {
        if (!tcp_stack_override_.empty()) {
          const std::optional<core::TcpStackKind> kind =
              net::tcp_stack_kind(tcp_stack_override_);
          if (!kind)
            throw ScenarioError(tcp_stack_line_, "unknown tcp.stack '" + tcp_stack_override_ +
                                                     "' (want dctcp, bbr or davis)");
          tcp->stack = *kind;
          tcp->name = "tcp_" + core::to_string(*kind);
          spec.name = tcp->name;
        }
        spec.tcp = std::move(tcp);
      } else {
        if (!tcp_stack_override_.empty())
          throw ScenarioError(tcp_stack_line_,
                              "'set tcp.stack' needs a tcp_* p2m placement in this template");
        if (p2m_workload_ == "rdma_write")
          spec = net::rdma_write_p2m();
        else if (p2m_workload_ == "rdma_read")
          spec = net::rdma_read_p2m();
        else
          spec.storage = p2m_workload(p2m_line_, tmpl_.host, p2m_workload_);
      }
      tmpl_.p2m = spec;
    } else if (!tcp_stack_override_.empty()) {
      throw ScenarioError(tcp_stack_line_,
                          "'set tcp.stack' needs a tcp_* p2m placement in this template");
    }
    if (!tmpl_.c2m && !tmpl_.p2m)
      throw ScenarioError(line, "template '" + tmpl_.name + "' places no workload (add c2m/p2m)");
    if (tmpl_.c2m && tmpl_.c2m->cores > tmpl_.host.total_cores)
      throw ScenarioError(line, "template '" + tmpl_.name + "' places " +
                                    std::to_string(tmpl_.c2m->cores) + " c2m cores on a " +
                                    std::to_string(tmpl_.host.total_cores) + "-core host");
    const std::string problem = tmpl_.host.validate();
    if (!problem.empty())
      throw ScenarioError(line, "template '" + tmpl_.name + "': invalid host config: " + problem);
    sc_.templates_.push_back(std::move(tmpl_));
    in_template_ = false;
  }

  void finish() {
    if (sc_.name_.empty()) throw ScenarioError(1, "empty scenario: missing 'fleet <name>'");
    if (in_template_)
      throw ScenarioError(template_line_, "template '" + tmpl_.name + "' is missing its 'end'");
    if (sc_.groups_.empty()) throw ScenarioError(1, "scenario places no hosts (add 'hosts N T')");
  }

  std::size_t find_template(std::size_t line, const std::string& name) const {
    for (std::size_t i = 0; i < sc_.templates_.size(); ++i)
      if (sc_.templates_[i].name == name) return i;
    throw ScenarioError(line, "unknown template '" + name + "'");
  }

  std::uint32_t tenant_id(const std::string& name) {
    for (std::size_t i = 0; i < sc_.tenants_.size(); ++i)
      if (sc_.tenants_[i] == name) return static_cast<std::uint32_t>(i);
    sc_.tenants_.push_back(name);
    return static_cast<std::uint32_t>(sc_.tenants_.size() - 1);
  }

  static void expect_args(std::size_t line, const std::vector<std::string>& t, std::size_t n,
                          const char* usage) {
    if (t.size() != n + 1) throw ScenarioError(line, std::string("usage: ") + usage);
  }

  std::string_view text_;
  Scenario sc_;
  bool in_template_ = false;
  std::size_t template_line_ = 0;
  std::size_t p2m_line_ = 0;
  HostTemplate tmpl_;
  std::string c2m_workload_;
  std::string p2m_workload_;
  std::string tcp_stack_override_;
  std::size_t tcp_stack_line_ = 0;
};

Scenario Scenario::parse(std::string_view text) { return ScenarioParser(text).run(); }

Scenario Scenario::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::vector<HostInstance> Scenario::expand() const {
  std::vector<HostInstance> hosts;
  hosts.reserve(total_hosts());
  const double jitter = measure_jitter_pct_ / 100.0;
  std::uint64_t index = 0;
  for (const HostGroup& g : groups_) {
    const HostTemplate& t = templates_[g.tmpl];
    for (std::uint64_t r = 0; r < g.count; ++r, ++index) {
      HostInstance h;
      h.index = index;
      h.tmpl = g.tmpl;
      h.opt = base_opt_;
      h.opt.seed = t.seed;
      if (jitter > 0) {
        // Stagger only the measurement-window length: the construction +
        // warmup prefix (the config fingerprint) stays shared across the
        // template's replicas, so they are windows of one fork job -- one
        // warmup, and each shorter window read on the way to the longest.
        // Keyed by (scenario seed, host index) only -- expand() stays a
        // pure function of the text.
        Rng stream(seed_ ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
        const auto span = static_cast<std::uint64_t>(
            static_cast<double>(h.opt.measure) * jitter);
        if (span > 0) h.opt.measure += static_cast<Tick>(stream.below(span + 1));
      }
      hosts.push_back(h);
    }
  }
  return hosts;
}

}  // namespace hostnet::fleet
