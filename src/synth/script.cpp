#include "synth/script.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/bits.hpp"

namespace lsml::synth {

namespace {

constexpr int kDefaultRewriteCut = 4;
constexpr int kDefaultRefactorCut = 6;
constexpr int kDefaultCutsPerNode = 8;
constexpr int kDefaultFraigConflicts = 1000;

const char* kind_spelling(PassKind kind) {
  switch (kind) {
    case PassKind::kCleanup:
      return "c";
    case PassKind::kBalance:
      return "b";
    case PassKind::kRewrite:
      return "rw";
    case PassKind::kRefactor:
      return "rf";
    case PassKind::kFraig:
      return "fs";
    case PassKind::kApprox:
      return "approx";
  }
  return "?";
}

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream is(text);
  std::string token;
  while (is >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

int parse_positive_int(const std::string& pass_text, const std::string& flag,
                       const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v <= 0 || v > 1 << 24) {
    throw std::invalid_argument("synth script: bad value '" + value +
                                "' for " + flag + " in '" + pass_text + "'");
  }
  return static_cast<int>(v);
}

Pass parse_pass(const std::string& pass_text) {
  const std::vector<std::string> tokens = tokenize(pass_text);
  if (tokens.empty()) {
    throw std::invalid_argument("synth script: empty pass (stray ';'?)");
  }
  Pass pass;
  const std::string& head = tokens[0];
  if (head == "c" || head == "cleanup") {
    pass.kind = PassKind::kCleanup;
  } else if (head == "b" || head == "balance") {
    pass.kind = PassKind::kBalance;
  } else if (head == "rw" || head == "rewrite") {
    pass.kind = PassKind::kRewrite;
  } else if (head == "rf" || head == "refactor") {
    pass.kind = PassKind::kRefactor;
  } else if (head == "fs" || head == "fraig") {
    pass.kind = PassKind::kFraig;
  } else if (head == "approx") {
    pass.kind = PassKind::kApprox;
  } else {
    throw std::invalid_argument("synth script: unknown pass '" + head + "'");
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    if (i + 1 >= tokens.size()) {
      throw std::invalid_argument("synth script: " + flag +
                                  " needs a value in '" + pass_text + "'");
    }
    if (flag == "-c" && pass.kind == PassKind::kFraig) {
      // fs alone admits zero: "fs -c 0" is the canonical unlimited
      // spelling (stored as -1 so it stays distinct from "use default").
      const std::string& text = tokens[++i];
      const int value = text == "0" ? 0
                                    : parse_positive_int(pass_text, flag,
                                                         text);
      pass.conflict_budget = value == 0 ? -1 : value;
      continue;
    }
    const int value = parse_positive_int(pass_text, flag, tokens[++i]);
    const bool resynth = pass.kind == PassKind::kRewrite ||
                         pass.kind == PassKind::kRefactor;
    if (flag == "-k" && resynth) {
      if (value < 2 || value > 6) {
        throw std::invalid_argument(
            "synth script: -k must be in [2, 6] in '" + pass_text + "'");
      }
      pass.cut_size = value;
    } else if (flag == "-c" && resynth) {
      pass.cuts_per_node = value;
    } else if (flag == "-n" && pass.kind == PassKind::kApprox) {
      pass.node_budget = static_cast<std::uint32_t>(value);
    } else {
      throw std::invalid_argument("synth script: option '" + flag +
                                  "' does not apply in '" + pass_text + "'");
    }
  }
  return pass;
}

}  // namespace

int Pass::effective_cut_size() const {
  if (cut_size > 0) {
    return cut_size;
  }
  return kind == PassKind::kRefactor ? kDefaultRefactorCut
                                     : kDefaultRewriteCut;
}

int Pass::effective_cuts_per_node() const {
  return cuts_per_node > 0 ? cuts_per_node : kDefaultCutsPerNode;
}

std::int64_t Pass::effective_conflict_budget() const {
  if (conflict_budget < 0) {
    return 0;  // sat::FraigOptions convention: 0 = unlimited
  }
  return conflict_budget > 0 ? conflict_budget : kDefaultFraigConflicts;
}

std::string Pass::spelling() const {
  std::string out = kind_spelling(kind);
  const bool resynth = kind == PassKind::kRewrite || kind == PassKind::kRefactor;
  if (resynth) {
    const int default_cut = kind == PassKind::kRefactor ? kDefaultRefactorCut
                                                        : kDefaultRewriteCut;
    if (cut_size > 0 && cut_size != default_cut) {
      out += " -k " + std::to_string(cut_size);
    }
    if (cuts_per_node > 0 && cuts_per_node != kDefaultCutsPerNode) {
      out += " -c " + std::to_string(cuts_per_node);
    }
  } else if (kind == PassKind::kFraig) {
    if (conflict_budget < 0) {
      out += " -c 0";  // unlimited: distinct spelling, distinct fingerprint
    } else if (conflict_budget > 0 &&
               conflict_budget != kDefaultFraigConflicts) {
      out += " -c " + std::to_string(conflict_budget);
    }
  } else if (kind == PassKind::kApprox && node_budget > 0) {
    out += " -n " + std::to_string(node_budget);
  }
  return out;
}

std::string Script::str() const {
  std::string out;
  for (const Pass& pass : passes) {
    if (!out.empty()) {
      out += "; ";
    }
    out += pass.spelling();
  }
  return out;
}

std::uint64_t Script::fingerprint() const {
  const std::string text = str();
  return core::fnv1a(text.data(), text.size());
}

Script Script::parse(const std::string& text) {
  Script script;
  script.name = "custom";
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(';', begin);
    const std::string part =
        text.substr(begin, end == std::string::npos ? end : end - begin);
    // Blank segments (trailing ';', doubled separators) are tolerated.
    if (part.find_first_not_of(" \t\n") != std::string::npos) {
      script.passes.push_back(parse_pass(part));
    }
    if (end == std::string::npos) {
      break;
    }
    begin = end + 1;
  }
  if (script.passes.empty()) {
    throw std::invalid_argument("synth script: no passes in '" + text + "'");
  }
  return script;
}

Script Script::preset(const std::string& name) {
  const auto build = [&name](const char* text) {
    Script script = parse(text);
    script.name = name;
    return script;
  };
  if (name == "fast") {
    // One cheap round: balance for depth, rewrite for size.
    return build("c; b; rw");
  }
  if (name == "resyn2") {
    // ABC's resyn2 rhythm (b; rw; rf; b; rw; rwz; b; rfz; rwz; b) without
    // the zero-cost variants, which this rewriter does not distinguish.
    return build("c; b; rw; rf; b; rw; b; rf; b");
  }
  if (name == "resyn2fs") {
    // resyn2 followed by SAT sweeping: fraiging merges the functionally-
    // equivalent nodes the cut rewriter cannot see, then a cleanup drops
    // the released cones. Never worse than resyn2 (fs only merges).
    return build("c; b; rw; rf; b; rw; b; rf; b; fs; c");
  }
  if (name == "compress2max") {
    // Heaviest preset: alternate cut sizes up to the 6-leaf maximum.
    return build("c; b; rw; rf; b; rw -k 6; b; rf -k 5; rw; b");
  }
  throw std::invalid_argument("synth script: unknown preset '" + name +
                              "' (try: fast, resyn2, resyn2fs, "
                              "compress2max)");
}

std::vector<std::string> Script::preset_names() {
  return {"fast", "resyn2", "resyn2fs", "compress2max"};
}

Script Script::named_or_parse(const std::string& text) {
  for (const std::string& name : preset_names()) {
    if (text == name) {
      return preset(name);
    }
  }
  return parse(text);
}

}  // namespace lsml::synth
