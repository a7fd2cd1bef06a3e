#include "learn/matching.hpp"

#include <vector>

#include "aig/aig_build.hpp"
#include "oracle/arith_oracles.hpp"
#include "sop/cube.hpp"

namespace lsml::learn {

namespace {

using aig::Lit;

double fraction_equal(const core::BitVec& a, const core::BitVec& b) {
  return static_cast<double>(a.count_equal(b)) / static_cast<double>(a.size());
}

/// Agreement of an oracle with the training labels.
double oracle_agreement(const oracle::Oracle& f, const data::Dataset& ds,
                        const std::vector<core::BitVec>& rows) {
  std::size_t agree = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    agree += f.eval(rows[r]) == ds.label(r) ? 1 : 0;
  }
  return static_cast<double>(agree) / static_cast<double>(rows.size());
}

std::vector<Lit> word_lits(const aig::Aig& g, std::size_t start,
                           std::size_t width) {
  std::vector<Lit> lits;
  lits.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    lits.push_back(g.pi(static_cast<std::uint32_t>(start + i)));
  }
  return lits;
}

}  // namespace

std::optional<MatchResult> match_standard_function(
    const data::Dataset& train, const MatchOptions& options) {
  const std::size_t n = train.num_inputs();
  const std::size_t rows = train.num_rows();
  if (rows == 0) {
    return std::nullopt;
  }
  const auto& labels = train.labels();

  // --- constants ---------------------------------------------------------
  const std::size_t ones = labels.count();
  if (ones == 0 || ones == rows) {
    MatchResult m;
    m.what = ones == 0 ? "const0" : "const1";
    m.circuit = aig::Aig(static_cast<std::uint32_t>(n));
    m.circuit.add_output(ones == 0 ? aig::kLitFalse : aig::kLitTrue);
    return m;
  }

  // --- single literal ----------------------------------------------------
  for (std::size_t v = 0; v < n; ++v) {
    const double eq = fraction_equal(train.column(v), labels);
    if (eq >= options.min_agreement || 1.0 - eq >= options.min_agreement) {
      MatchResult m;
      const bool inverted = eq < 0.5;
      m.what = (inverted ? "!x" : "x") + std::to_string(v);
      m.circuit = aig::Aig(static_cast<std::uint32_t>(n));
      m.circuit.add_output(
          aig::lit_notc(m.circuit.pi(static_cast<std::uint32_t>(v)), inverted));
      return m;
    }
  }

  // --- pairwise XOR ------------------------------------------------------
  if (n <= options.max_inputs_for_xor_scan) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double eq =
            fraction_equal(train.column(i) ^ train.column(j), labels);
        if (eq >= options.min_agreement || 1.0 - eq >= options.min_agreement) {
          MatchResult m;
          const bool inverted = eq < 0.5;
          m.what = std::string(inverted ? "xnor" : "xor") + "(x" +
                   std::to_string(i) + ",x" + std::to_string(j) + ")";
          m.circuit = aig::Aig(static_cast<std::uint32_t>(n));
          const Lit x = m.circuit.xor2(
              m.circuit.pi(static_cast<std::uint32_t>(i)),
              m.circuit.pi(static_cast<std::uint32_t>(j)));
          m.circuit.add_output(aig::lit_notc(x, inverted));
          return m;
        }
      }
    }
  }

  // --- totally symmetric (covers parity) ---------------------------------
  {
    // Signature consistency: group rows by popcount.
    std::vector<std::size_t> count_ones(n + 1, 0);
    std::vector<std::size_t> count_total(n + 1, 0);
    const auto bit_rows = sop::dataset_rows(train);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t c = bit_rows[r].count();
      ++count_total[c];
      count_ones[c] += train.label(r) ? 1 : 0;
    }
    std::size_t agree = 0;
    std::vector<bool> signature(n + 1, false);
    for (std::size_t c = 0; c <= n; ++c) {
      const bool bit = 2 * count_ones[c] >= count_total[c];
      signature[c] = bit;
      agree += bit ? count_ones[c] : count_total[c] - count_ones[c];
    }
    if (static_cast<double>(agree) / rows >= options.min_agreement) {
      MatchResult m;
      m.what = "symmetric";
      m.circuit = aig::Aig(static_cast<std::uint32_t>(n));
      m.circuit.add_output(
          aig::symmetric_function(m.circuit, word_lits(m.circuit, 0, n),
                                  signature));
      return m;
    }

    // --- arithmetic library (2-word layout) -------------------------------
    if (n % 2 == 0) {
      const std::size_t k = n / 2;
      // Adder MSB / 2nd MSB.
      for (const std::size_t bit : {k, k - 1}) {
        const oracle::AdderBitOracle f(k, bit);
        if (oracle_agreement(f, train, bit_rows) >= options.min_agreement) {
          MatchResult m;
          m.what = "adder[k=" + std::to_string(k) +
                   ",bit=" + std::to_string(bit) + "]";
          m.circuit = aig::Aig(static_cast<std::uint32_t>(n));
          const auto sum =
              aig::ripple_adder(m.circuit, word_lits(m.circuit, 0, k),
                                word_lits(m.circuit, k, k));
          m.circuit.add_output(sum[bit]);
          return m;
        }
      }
      // Comparators (a>b, a>=b and complements).
      {
        const oracle::ComparatorOracle f(k);
        const double eq = oracle_agreement(f, train, bit_rows);
        if (eq >= options.min_agreement || 1.0 - eq >= options.min_agreement) {
          MatchResult m;
          const bool inverted = eq < 0.5;
          m.what = inverted ? "comparator[a<=b]" : "comparator[a>b]";
          m.circuit = aig::Aig(static_cast<std::uint32_t>(n));
          const Lit gt =
              aig::greater_than(m.circuit, word_lits(m.circuit, 0, k),
                                word_lits(m.circuit, k, k));
          m.circuit.add_output(aig::lit_notc(gt, inverted));
          return m;
        }
      }
      // Small multipliers (MSB / middle bit).
      if (k <= options.max_multiplier_width) {
        for (const std::size_t bit : {2 * k - 1, k - 1}) {
          const oracle::MultiplierBitOracle f(k, bit);
          if (oracle_agreement(f, train, bit_rows) >= options.min_agreement) {
            MatchResult m;
            m.what = "multiplier[k=" + std::to_string(k) +
                     ",bit=" + std::to_string(bit) + "]";
            m.circuit = aig::Aig(static_cast<std::uint32_t>(n));
            const auto product =
                aig::multiplier(m.circuit, word_lits(m.circuit, 0, k),
                                word_lits(m.circuit, k, k));
            m.circuit.add_output(product[bit]);
            return m;
          }
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace lsml::learn
