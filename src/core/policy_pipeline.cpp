#include "core/policy_pipeline.h"

#include <string>
#include <utility>

#include "core/policy_stages.h"
#include "sim/kv_text.h"

namespace ccdem::core {

void PolicyPipeline::add_stage(std::unique_ptr<PolicyStage> stage) {
  stages_.push_back(std::move(stage));
  if (obs_ != nullptr) {
    // Stage added after set_obs (the self-refresh overlay): register its
    // counter pair now so the slot vectors stay index-aligned.
    const std::string prefix =
        "policy." + std::string(stages_.back()->name()) + ".";
    ctr_proposals_.push_back(&obs_->counters.counter(prefix + "proposals"));
    ctr_wins_.push_back(&obs_->counters.counter(prefix + "wins"));
    stages_.back()->register_obs(obs_);
  }
}

void PolicyPipeline::set_obs(obs::ObsSink* obs) {
  obs_ = obs;
  if (obs_ == nullptr) return;
  ctr_proposals_.clear();
  ctr_wins_.clear();
  for (const auto& stage : stages_) {
    const std::string prefix = "policy." + std::string(stage->name()) + ".";
    ctr_proposals_.push_back(&obs_->counters.counter(prefix + "proposals"));
    ctr_wins_.push_back(&obs_->counters.counter(prefix + "wins"));
  }
  for (const auto& stage : stages_) stage->register_obs(obs_);
}

void PolicyPipeline::bind_recovery_host(RecoveryHost* host) {
  for (const auto& stage : stages_) stage->set_recovery_host(host);
}

void PolicyPipeline::start(sim::Simulator& sim) {
  for (const auto& stage : stages_) stage->start(sim);
}

void PolicyPipeline::stop() {
  for (const auto& stage : stages_) stage->stop();
}

PipelineDecision PolicyPipeline::evaluate(const PolicyInput& in) {
  PipelineDecision d;
  // Cleared up front so a preempted round never exposes the previous
  // round's proposals through the adjust-phase input below.
  proposals_.clear();
  owners_.clear();

  for (const auto& stage : stages_) {
    if (const std::optional<int> pin = stage->preempt(in)) {
      d.preempted = true;
      d.target_hz = *pin;
      d.policy_hz = *pin;
      break;
    }
  }

  if (!d.preempted) {
    PolicyInput round = in;
    round.upstream = &proposals_;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      if (std::optional<RateProposal> p = stages_[i]->propose(round)) {
        if (obs_ != nullptr) ++*ctr_proposals_[i];
        proposals_.push_back(*p);
        owners_.push_back(i);
      }
    }
    // Arbitration: max priority, then max rate, then earliest stage.
    std::size_t best = proposals_.size();
    for (std::size_t j = 0; j < proposals_.size(); ++j) {
      if (best == proposals_.size() ||
          proposals_[j].priority > proposals_[best].priority ||
          (proposals_[j].priority == proposals_[best].priority &&
           proposals_[j].target_hz > proposals_[best].target_hz)) {
        best = j;
      }
    }
    if (best < proposals_.size()) {
      d.target_hz = proposals_[best].target_hz;
      if (obs_ != nullptr) ++*ctr_wins_[owners_[best]];
    } else {
      // A validated spec always has a rate source, but a hand-built
      // pipeline may not: hold the current rate.
      d.target_hz = in.current_hz;
    }
    d.policy_hz = round.best_policy_hz(in.current_hz);
  }

  // Adjust-phase input carries this round's proposals so safety planes can
  // read the policy's own decision (the ladder's drop-boost rung).
  PolicyInput adj = in;
  adj.upstream = &proposals_;
  for (const auto& stage : stages_) {
    stage->adjust(adj, d.preempted, d.target_hz);
  }

  ++evaluations_;
  CCDEM_OBS_SPAN(obs_, obs::Phase::kArbiter, in.now, sim::Duration{},
                 evaluations_, d.target_hz);
  return d;
}

bool PolicyPipeline::has_stage(std::string_view name) const {
  for (const auto& stage : stages_) {
    if (stage->name() == name) return true;
  }
  return false;
}

PolicyStage* PolicyPipeline::stage(std::string_view name) {
  for (const auto& stage : stages_) {
    if (stage->name() == name) return stage.get();
  }
  return nullptr;
}

// --- pipeline specs --------------------------------------------------------

const char* stage_keyword(StageId id) {
  switch (id) {
    case StageId::kSection: return "section";
    case StageId::kNaive: return "naive";
    case StageId::kHysteresis: return "hysteresis";
    case StageId::kBoost: return "boost";
    case StageId::kPredictive: return "predictive";
    case StageId::kDvfs: return "dvfs";
  }
  return "?";
}

std::optional<StageId> stage_from_keyword(std::string_view name) {
  for (const StageId id :
       {StageId::kSection, StageId::kNaive, StageId::kHysteresis,
        StageId::kBoost, StageId::kPredictive, StageId::kDvfs}) {
    if (name == stage_keyword(id)) return id;
  }
  return std::nullopt;
}

namespace {

bool is_rate_source(StageId id) {
  return id == StageId::kSection || id == StageId::kNaive ||
         id == StageId::kPredictive;
}

}  // namespace

bool PipelineSpec::contains(StageId id) const {
  for (const StageId s : stages) {
    if (s == id) return true;
  }
  return false;
}

std::string PipelineSpec::to_string() const {
  std::string out;
  for (const StageId s : stages) {
    if (!out.empty()) out += ',';
    out += stage_keyword(s);
  }
  return out;
}

std::optional<std::string> PipelineSpec::validate() const {
  if (stages.empty()) return "pipeline spec is empty";
  bool source_seen = false;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (stages[j] == stages[i]) {
        return std::string("duplicate stage '") + stage_keyword(stages[i]) +
               "'";
      }
    }
    if (stages[i] == StageId::kHysteresis && !source_seen) {
      return "hysteresis requires a rate source (section/naive/predictive) "
             "before it";
    }
    if (is_rate_source(stages[i])) source_seen = true;
  }
  if (!source_seen) {
    return "pipeline needs at least one rate source "
           "(section/naive/predictive)";
  }
  return std::nullopt;
}

std::optional<PipelineSpec> PipelineSpec::parse(std::string_view text,
                                                std::string* error) {
  PipelineSpec spec;
  if (text.empty()) {
    if (error != nullptr) *error = "pipeline spec is empty";
    return std::nullopt;
  }
  for (const std::string& token : sim::kv::split_list(text)) {
    const std::optional<StageId> id = stage_from_keyword(token);
    if (!id) {
      if (error != nullptr) *error = "unknown pipeline stage '" + token + "'";
      return std::nullopt;
    }
    spec.stages.push_back(*id);
  }
  if (const std::optional<std::string> err = spec.validate()) {
    if (error != nullptr) *error = *err;
    return std::nullopt;
  }
  return spec;
}

std::unique_ptr<PolicyPipeline> build_pipeline(
    const PipelineSpec& spec, const display::RefreshRateSet& rates,
    const DpmConfig& config) {
  auto pipeline = std::make_unique<PolicyPipeline>();
  for (const StageId id : spec.stages) {
    switch (id) {
      case StageId::kSection:
        pipeline->add_stage(std::make_unique<SectionStage>(
            SectionTable::build(rates, config.section_alpha)));
        break;
      case StageId::kNaive:
        pipeline->add_stage(std::make_unique<NaiveStage>(rates));
        break;
      case StageId::kHysteresis:
        pipeline->add_stage(std::make_unique<HysteresisStage>(
            config.hysteresis_down_confirmations));
        break;
      case StageId::kBoost:
        pipeline->add_stage(std::make_unique<BoostStage>(config.boost_hz));
        break;
      case StageId::kPredictive:
        pipeline->add_stage(std::make_unique<PredictiveRateStage>(
            SectionTable::build(rates, config.section_alpha),
            config.predictive));
        break;
      case StageId::kDvfs:
        pipeline->add_stage(std::make_unique<DvfsCoControlStage>(
            config.dvfs, config.min_hz));
        break;
    }
  }
  if (config.min_hz > 0) {
    pipeline->add_stage(std::make_unique<FloorStage>(config.min_hz));
  }
  if (config.recovery.enabled) {
    pipeline->add_stage(std::make_unique<RecoveryStage>(config.recovery));
  }
  if (config.ladder.enabled) {
    // Last on purpose: the ladder caps whatever every other plane decided,
    // and on pin ties the recovery plane (earlier) wins.
    pipeline->add_stage(std::make_unique<DegradationLadderStage>(config.ladder));
  }
  return pipeline;
}

}  // namespace ccdem::core
