#include "synth/script_search.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/bits.hpp"
#include "core/rng.hpp"

namespace fs = std::filesystem;

namespace lsml::synth {
namespace {

/// Experience rows live under this suite::ResultCache team key.
constexpr const char* kExperienceTeam = "scripts";

/// Longest script the mutation/crossover operators will grow.
constexpr std::size_t kMaxPasses = 12;

/// Exploration rate of the epsilon-greedy parent draw.
constexpr double kEpsilon = 0.3;
/// Probability of crossover (vs mutation) once the pool has two members.
constexpr double kCrossoverP = 0.25;

/// Function-preserving mutation vocabulary. approx stays out: budget
/// enforcement is the PassManager's contract, not a search move.
const std::vector<Pass>& pass_vocabulary() {
  static const std::vector<Pass> vocab = [] {
    std::vector<Pass> v;
    v.push_back({PassKind::kCleanup, 0, 0, 0, 0});
    v.push_back({PassKind::kBalance, 0, 0, 0, 0});
    v.push_back({PassKind::kRewrite, 0, 0, 0, 0});
    v.push_back({PassKind::kRewrite, 5, 0, 0, 0});
    v.push_back({PassKind::kRewrite, 6, 0, 0, 0});
    v.push_back({PassKind::kRefactor, 0, 0, 0, 0});
    v.push_back({PassKind::kRefactor, 4, 0, 0, 0});
    v.push_back({PassKind::kRefactor, 5, 0, 0, 0});
    v.push_back({PassKind::kFraig, 0, 0, 0, 0});
    v.push_back({PassKind::kFraig, 0, 0, 300, 0});
    return v;
  }();
  return vocab;
}

Pass random_pass(core::Rng& rng) {
  const std::vector<Pass>& vocab = pass_vocabulary();
  return vocab[rng.below(vocab.size())];
}

Script mutate(const Script& parent, core::Rng& rng) {
  Script child = parent;
  child.name = "auto";
  if (child.passes.empty()) {
    child.passes.push_back(random_pass(rng));
    return child;
  }
  const std::size_t size = child.passes.size();
  switch (rng.below(4)) {
    case 0:  // insert (falls back to replace at the length cap)
      if (size < kMaxPasses) {
        child.passes.insert(
            child.passes.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(size + 1)),
            random_pass(rng));
        break;
      }
      [[fallthrough]];
    case 2:  // replace
      child.passes[rng.below(size)] = random_pass(rng);
      break;
    case 1:  // erase (a single pass gets replaced instead)
      if (size > 1) {
        child.passes.erase(child.passes.begin() +
                           static_cast<std::ptrdiff_t>(rng.below(size)));
      } else {
        child.passes[0] = random_pass(rng);
      }
      break;
    default:  // swap
      std::swap(child.passes[rng.below(size)], child.passes[rng.below(size)]);
      break;
  }
  return child;
}

Script crossover(const Script& a, const Script& b, core::Rng& rng) {
  const std::size_t ca = rng.below(a.passes.size() + 1);
  const std::size_t cb = rng.below(b.passes.size() + 1);
  Script child;
  child.name = "auto";
  child.passes.assign(a.passes.begin(),
                      a.passes.begin() + static_cast<std::ptrdiff_t>(ca));
  child.passes.insert(child.passes.end(),
                      b.passes.begin() + static_cast<std::ptrdiff_t>(cb),
                      b.passes.end());
  if (child.passes.empty()) {
    return mutate(a, rng);
  }
  if (child.passes.size() > kMaxPasses) {
    child.passes.resize(kMaxPasses);
  }
  return child;
}

struct Candidate {
  Script script;
  SynthResult result;
};

/// The search's strict weak order: fewer AND gates, then fewer levels
/// (PassManager's improves() rule), then shorter and lexicographically
/// smaller scripts so ties never depend on evaluation order.
bool better(const Candidate& a, const Candidate& b) {
  const std::uint32_t aa = a.result.circuit.num_ands();
  const std::uint32_t ba = b.result.circuit.num_ands();
  if (aa != ba) {
    return aa < ba;
  }
  const std::uint32_t al = a.result.circuit.num_levels();
  const std::uint32_t bl = b.result.circuit.num_levels();
  if (al != bl) {
    return al < bl;
  }
  if (a.script.passes.size() != b.script.passes.size()) {
    return a.script.passes.size() < b.script.passes.size();
  }
  return a.script.str() < b.script.str();
}

}  // namespace

Script OptRequest::resolved_script() const {
  if (is_auto()) {
    throw std::invalid_argument(
        "OptRequest: 'auto' names no fixed script (run it through a "
        "ScriptSearch)");
  }
  return Script::named_or_parse(script);
}

void OptRequest::validate() const {
  if (!is_auto()) {
    (void)resolved_script();  // throws std::invalid_argument with context
  }
}

std::string OptRequest::script_display() const {
  return is_auto() ? std::string(kAutoScript) : resolved_script().str();
}

std::uint64_t OptRequest::fingerprint() const {
  std::uint64_t h;
  if (is_auto()) {
    static constexpr char kTag[] = "opt:auto";
    h = core::fnv1a(kTag, sizeof(kTag) - 1);
    h = core::hash_combine(h, search_seed);
    h = core::hash_combine(h, static_cast<std::uint64_t>(search_budget));
  } else {
    h = resolved_script().fingerprint();
  }
  return core::hash_combine(h, options.fingerprint());
}

ScriptSearch::ScriptSearch(OptRequest request)
    : request_(std::move(request)), store_(request_.experience_dir) {
  if (!store_.enabled()) {
    return;
  }
  const fs::path table = fs::path(store_.dir()) / kExperienceTeam;
  std::error_code ec;
  if (!fs::is_directory(table, ec)) {
    return;
  }
  // Deterministic snapshot: sorted file list, one row per bucket, rows
  // whose features no longer hash to their stored bucket (older
  // quantization) are dropped as misses.
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(table, ec)) {
    if (entry.path().extension() == ".result") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  for (const std::string& stem : stems) {
    // "<benchmark>-<hash16>": split off the trailing content-hash hex.
    if (stem.size() < 18 || stem[stem.size() - 17] != '-') {
      continue;
    }
    char* end = nullptr;
    const std::string hash_text = stem.substr(stem.size() - 16);
    const std::uint64_t bucket = std::strtoull(hash_text.c_str(), &end, 16);
    if (end != hash_text.c_str() + hash_text.size()) {
      continue;
    }
    const std::string benchmark = stem.substr(0, stem.size() - 17);
    const auto task =
        store_.load(kExperienceTeam, benchmark, bucket, /*want_aag=*/true);
    if (!task) {
      continue;
    }
    Experience exp;
    exp.bucket = bucket;
    if (!FeatureVector::parse(task->aag, &exp.features) ||
        exp.features.bucket_hash() != bucket) {
      continue;
    }
    try {
      exp.script = Script::parse(task->result.method);
    } catch (const std::invalid_argument&) {
      continue;  // written under a retired pass vocabulary
    }
    exp.script.name = "learned";
    experience_.push_back(std::move(exp));
  }
  std::sort(experience_.begin(), experience_.end(),
            [](const Experience& a, const Experience& b) {
              return a.bucket < b.bucket;
            });
  experience_.erase(
      std::unique(experience_.begin(), experience_.end(),
                  [](const Experience& a, const Experience& b) {
                    return a.bucket == b.bucket;
                  }),
      experience_.end());
}

const ScriptSearch::Experience* ScriptSearch::exact_bucket(
    std::uint64_t bucket) const {
  const auto it = std::lower_bound(
      experience_.begin(), experience_.end(), bucket,
      [](const Experience& e, std::uint64_t b) { return e.bucket < b; });
  if (it == experience_.end() || it->bucket != bucket) {
    return nullptr;
  }
  return &*it;
}

Script ScriptSearch::recommend(const FeatureVector& features) const {
  if (experience_.empty()) {
    return Script::preset("resyn2");  // the static prior
  }
  if (const Experience* exact = exact_bucket(features.bucket_hash())) {
    return exact->script;
  }
  const Experience* nearest = &experience_.front();
  double nearest_d = feature_distance(features, nearest->features);
  for (const Experience& e : experience_) {
    const double d = feature_distance(features, e.features);
    // experience_ is sorted by bucket, so strict < is order-independent.
    if (d < nearest_d) {
      nearest = &e;
      nearest_d = d;
    }
  }
  return nearest->script;
}

OptOutcome ScriptSearch::optimize(const aig::Aig& in,
                                  const OptRequest& request) const {
  OptOutcome out;
  if (!request.is_auto()) {
    out.script = request.resolved_script();
    out.result = PassManager(request.options).run_cached(in, out.script);
    return out;
  }

  const FeatureVector features = extract_features(in);
  const std::uint64_t bucket = features.bucket_hash();
  // Candidates are scored without certification; only the winner pays for
  // --verify (below). Everything else about the contract — node budget,
  // rounds, approx seed — applies to every probe.
  SynthOptions probe = request.options;
  probe.verify_equivalence = false;
  const PassManager manager(probe);

  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (request.options.time_budget_ms <= 0) {
      return false;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return elapsed > request.options.time_budget_ms;
  };

  std::vector<Candidate> pool;
  std::unordered_set<std::string> seen;
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t best = kNone;
  int evals = 0;
  const auto consider = [&](Script script) {
    if (!seen.insert(script.str()).second) {
      return;
    }
    SynthResult result = manager.run_cached(in, script);
    pool.push_back({std::move(script), std::move(result)});
    ++evals;
    if (best == kNone || better(pool.back(), pool[best])) {
      best = pool.size() - 1;
    }
  };

  // The presets always compete: auto can never do worse than any of them
  // (in particular `fast` and `resyn2`), warm or cold.
  for (const std::string& name : Script::preset_names()) {
    consider(Script::preset(name));
    if (out_of_time()) {
      break;
    }
  }

  const Experience* warm = exact_bucket(bucket);
  if (warm != nullptr) {
    // Policy path: re-validate the learned script against the presets and
    // stop — no mutation loop, which is the warm-cache speedup.
    if (!out_of_time()) {
      consider(warm->script);
    }
    out.from_policy = true;
  } else {
    // Cold path: epsilon-greedy over mutations/crossovers, seeded with the
    // presets above plus the nearest-feature prior.
    if (!experience_.empty() && !out_of_time()) {
      consider(recommend(features));
    }
    core::Rng rng =
        core::Rng(request.search_seed).split(bucket, in.content_hash());
    const int budget = request.search_budget > evals ? request.search_budget
                                                     : evals;
    while (evals < budget && !out_of_time()) {
      const Candidate& parent =
          rng.flip(kEpsilon) ? pool[rng.below(pool.size())] : pool[best];
      Script child;
      bool fresh = false;
      for (int tries = 0; tries < 8 && !fresh; ++tries) {
        if (pool.size() >= 2 && rng.flip(kCrossoverP)) {
          const Candidate& other = pool[rng.below(pool.size())];
          child = crossover(parent.script, other.script, rng);
        } else {
          child = mutate(parent.script, rng);
        }
        fresh = seen.find(child.str()) == seen.end();
      }
      if (!fresh) {
        ++evals;  // neighborhood exhausted; spend the step and move on
        continue;
      }
      consider(std::move(child));
    }
    out.searched = true;
    if (store_.enabled() && best != kNone) {
      // One row per feature bucket: the winning script plus the features
      // it was trained on (so the nearest-feature policy can rank it).
      suite::CachedTask task;
      task.result.benchmark = features.bucket_name();
      task.result.method = pool[best].script.str();
      task.result.opt_script = pool[best].script.str();
      task.result.num_ands = pool[best].result.circuit.num_ands();
      task.result.num_levels = pool[best].result.circuit.num_levels();
      task.aag = features.str() + "\n";
      store_.store(kExperienceTeam, task.result.benchmark, bucket, task);
    }
  }

  out.candidates_evaluated = evals;
  out.script = pool[best].script;
  if (request.options.verify_equivalence) {
    // Certify only the winner, under the caller's full options.
    out.result = PassManager(request.options).run_cached(in, out.script);
  } else {
    out.result = std::move(pool[best].result);
  }
  return out;
}

// ------------------------------------------------- process default plumbing

namespace {

struct DefaultOpt {
  std::mutex mutex;
  std::shared_ptr<const ScriptSearch> optimizer;
};

DefaultOpt& default_storage() {
  static DefaultOpt storage;
  return storage;
}

std::shared_ptr<const ScriptSearch> ensure_optimizer_locked(DefaultOpt& d) {
  if (d.optimizer == nullptr) {
    d.optimizer = std::make_shared<ScriptSearch>(OptRequest{});
  }
  return d.optimizer;
}

}  // namespace

OptRequest default_opt_request() {
  DefaultOpt& d = default_storage();
  std::lock_guard<std::mutex> lock(d.mutex);
  return ensure_optimizer_locked(d)->request();
}

std::shared_ptr<const ScriptSearch> default_optimizer() {
  DefaultOpt& d = default_storage();
  std::lock_guard<std::mutex> lock(d.mutex);
  return ensure_optimizer_locked(d);
}

OptRequest set_default_opt_request(OptRequest request) {
  // The snapshot load does I/O; keep it outside the lock.
  auto optimizer = std::make_shared<ScriptSearch>(request);
  DefaultOpt& d = default_storage();
  std::lock_guard<std::mutex> lock(d.mutex);
  OptRequest previous =
      d.optimizer != nullptr ? d.optimizer->request() : OptRequest{};
  d.optimizer = std::move(optimizer);
  return previous;
}

}  // namespace lsml::synth
