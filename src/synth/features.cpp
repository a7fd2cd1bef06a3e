#include "synth/features.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/bits.hpp"

namespace lsml::synth {
namespace {

std::string double_repr(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool parse_double(const std::string& text, double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin && *end == '\0';
}

/// floor(log2(v + 1)): the log-scale size bucket. 0 -> 0, 1 -> 1, ...
std::uint32_t log_bucket(std::uint32_t v) {
  std::uint32_t b = 0;
  std::uint64_t x = static_cast<std::uint64_t>(v) + 1;
  while (x > 1) {
    x >>= 1;
    ++b;
  }
  return b;
}

/// AND gates in the cone of `root`, stamped against `mark` with `stamp`.
std::uint32_t cone_ands(const aig::Aig& g, aig::Lit root,
                        std::vector<std::uint32_t>* mark,
                        std::uint32_t stamp,
                        std::vector<std::uint32_t>* stack) {
  std::uint32_t count = 0;
  stack->clear();
  const std::uint32_t root_var = aig::lit_var(root);
  if (g.is_and(root_var) && (*mark)[root_var] != stamp) {
    (*mark)[root_var] = stamp;
    stack->push_back(root_var);
  }
  while (!stack->empty()) {
    const std::uint32_t var = stack->back();
    stack->pop_back();
    ++count;
    const aig::Node n = g.node(var);
    for (const aig::Lit fanin : {n.fanin0, n.fanin1}) {
      const std::uint32_t v = aig::lit_var(fanin);
      if (g.is_and(v) && (*mark)[v] != stamp) {
        (*mark)[v] = stamp;
        stack->push_back(v);
      }
    }
  }
  return count;
}

}  // namespace

FeatureVector extract_features(const aig::Aig& g) {
  FeatureVector f;
  f.num_pis = g.num_pis();
  f.num_pos = static_cast<std::uint32_t>(g.num_outputs());
  f.num_ands = g.num_ands();
  f.num_levels = g.num_levels();

  const std::vector<std::uint32_t> levels = g.levels();
  const std::vector<std::uint32_t> fanouts = g.fanout_counts();
  const std::uint32_t num_nodes = g.num_nodes();

  std::uint64_t fanout_sum = 0;
  for (std::uint32_t var = 1; var < num_nodes; ++var) {
    if (fanouts[var] > f.max_fanout) {
      f.max_fanout = fanouts[var];
    }
    if (g.is_and(var)) {
      fanout_sum += fanouts[var];
      // Depth octile of this gate; gates sit at levels 1..num_levels.
      // Levels above the output depth (dangling logic) clamp to the top.
      const std::uint32_t level = levels[var] > 0 ? levels[var] - 1 : 0;
      std::size_t bucket =
          f.num_levels == 0
              ? 0
              : static_cast<std::size_t>(
                    (static_cast<std::uint64_t>(level) *
                     kLevelHistogramBuckets) /
                    f.num_levels);
      if (bucket >= kLevelHistogramBuckets) {
        bucket = kLevelHistogramBuckets - 1;
      }
      f.level_histogram[bucket] += 1.0;
    }
  }
  if (f.num_ands > 0) {
    f.avg_fanout =
        static_cast<double>(fanout_sum) / static_cast<double>(f.num_ands);
    for (double& h : f.level_histogram) {
      h /= static_cast<double>(f.num_ands);
    }
  }

  std::vector<std::uint32_t> mark(num_nodes, 0);
  std::vector<std::uint32_t> stack;
  std::uint64_t cone_sum = 0;
  for (std::size_t o = 0; o < g.num_outputs(); ++o) {
    const std::uint32_t c = cone_ands(
        g, g.output(o), &mark, static_cast<std::uint32_t>(o + 1), &stack);
    cone_sum += c;
    if (c > f.max_cone) {
      f.max_cone = c;
    }
  }
  if (f.num_pos > 0) {
    f.avg_cone =
        static_cast<double>(cone_sum) / static_cast<double>(f.num_pos);
  }
  return f;
}

std::uint64_t FeatureVector::bucket_hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL * (kFeatureSchemaVersion + 1);
  h = core::hash_combine(h, log_bucket(num_ands));
  h = core::hash_combine(h, log_bucket(num_levels));
  h = core::hash_combine(h, log_bucket(num_pis));
  h = core::hash_combine(h, num_pos > 8 ? 8 : num_pos);
  h = core::hash_combine(h, log_bucket(max_fanout));
  for (const double frac : level_histogram) {
    // Quantize each octile's mass to fifths: enough to tell shapes apart,
    // coarse enough that one rewritten gate does not move the bucket.
    const auto q = static_cast<std::uint64_t>(frac * 4.0 + 0.5);
    h = core::hash_combine(h, q);
  }
  return h;
}

std::string FeatureVector::bucket_name() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "fb-%016llx",
                static_cast<unsigned long long>(bucket_hash()));
  return buf;
}

std::string FeatureVector::str() const {
  std::ostringstream os;
  os << "fv v" << kFeatureSchemaVersion << " pis " << num_pis << " pos "
     << num_pos << " ands " << num_ands << " levels " << num_levels
     << " maxfo " << max_fanout << " maxcone " << max_cone << " avgfo "
     << double_repr(avg_fanout) << " avgcone " << double_repr(avg_cone)
     << " hist";
  for (const double h : level_histogram) {
    os << ' ' << double_repr(h);
  }
  return os.str();
}

bool FeatureVector::parse(const std::string& text, FeatureVector* out) {
  std::istringstream is(text);
  std::string tag;
  const auto expect = [&is, &tag](const char* key) {
    return static_cast<bool>(is >> tag) && tag == key;
  };
  const auto read_double = [&is, &tag](double* value) {
    return static_cast<bool>(is >> tag) && parse_double(tag, value);
  };
  // Appended rather than "v" + to_string(): GCC 12 raises a false
  // -Wrestrict on the prepend, which breaks -Werror builds.
  std::string version_tag = "v";
  version_tag += std::to_string(kFeatureSchemaVersion);
  FeatureVector f;
  if (!expect("fv") || !expect(version_tag.c_str()) ||
      !expect("pis") || !(is >> f.num_pis) || !expect("pos") ||
      !(is >> f.num_pos) || !expect("ands") || !(is >> f.num_ands) ||
      !expect("levels") || !(is >> f.num_levels) || !expect("maxfo") ||
      !(is >> f.max_fanout) || !expect("maxcone") || !(is >> f.max_cone) ||
      !expect("avgfo") || !read_double(&f.avg_fanout) || !expect("avgcone") ||
      !read_double(&f.avg_cone) || !expect("hist")) {
    return false;
  }
  for (double& h : f.level_histogram) {
    if (!read_double(&h)) {
      return false;
    }
  }
  *out = f;
  return true;
}

double feature_distance(const FeatureVector& a, const FeatureVector& b) {
  const auto log1 = [](double v) { return std::log(1.0 + v); };
  const auto sq = [](double d) { return d * d; };
  double d = 0.0;
  d += sq(log1(a.num_ands) - log1(b.num_ands));
  d += sq(log1(a.num_levels) - log1(b.num_levels));
  d += sq(log1(a.num_pis) - log1(b.num_pis));
  d += sq(log1(a.num_pos) - log1(b.num_pos));
  d += sq(log1(a.max_fanout) - log1(b.max_fanout));
  d += sq(log1(a.avg_fanout) - log1(b.avg_fanout));
  d += sq(log1(a.avg_cone) - log1(b.avg_cone));
  for (std::size_t i = 0; i < kLevelHistogramBuckets; ++i) {
    d += sq(a.level_histogram[i] - b.level_histogram[i]);
  }
  return std::sqrt(d);
}

}  // namespace lsml::synth
