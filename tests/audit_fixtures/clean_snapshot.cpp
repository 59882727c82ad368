// Clean fixture for tools/hostnet_audit.py: a checkpointed component whose
// every data member is `State st_`, const construction config, a reference
// (wiring) or an owned checkpointed child; its by-value CreditPool lives in
// the State and reaches a DomainRegistry add() call through its accessor.
//
// Audit fixtures are parsed, never compiled, so the hostnet types are used
// by name without includes (the auditor is textual, like the lint).
#include <cstdint>
#include <memory>
#include <vector>

namespace fixture {

class Stage {
 public:
  struct State {
    std::uint64_t done = 0;
  };
  using Snapshot = State;
  void save_state(Snapshot& out) const { out = st_; }
  void load_state(const Snapshot& s) { st_ = s; }

 private:
  const std::uint32_t index_;
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Stage);

class Engine {
 public:
  struct State {
    std::uint64_t cycles = 0;
    std::uint64_t stalls = 0;
    flow::CreditPool pool;
  };
  struct Snapshot {
    State st;
    std::vector<Stage::Snapshot> stages;
  };

  void save_state(Snapshot& out) const {
    out.st = st_;
    out.stages.resize(stages_.size());
    for (std::size_t i = 0; i < stages_.size(); ++i) stages_[i]->save_state(out.stages[i]);
  }

  flow::CreditPool& pool() { return st_.pool; }

 private:
  sim::Simulator& sim_;   // reference: construction wiring
  const EngineConfig cfg_;  // const: construction config
  const Tick t_cycle_;      // const: derived at construction
  Stage* const first_;      // const pointer: wiring
  std::vector<std::unique_ptr<Stage>> stages_;  // owned checkpointed children
  std::unique_ptr<Stage> spare_;
  Stage last_;
  State st_;
};
HOSTNET_SNAPSHOT_COVERS(Engine);

inline void wire(Engine& e, flow::DomainRegistry& registry) {
  registry.add("fixture.engine.pool", &e.pool());
}

}  // namespace fixture
