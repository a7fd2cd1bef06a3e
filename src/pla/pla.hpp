#pragma once
// PLA (Programmable Logic Array) file format, as used by the contest to
// distribute the train/validation/test minterm sets (ESPRESSO's format).

#include <iosfwd>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "sop/cube.hpp"

namespace lsml::pla {

/// Widest `.i` read_pla accepts. The widest suite benchmark (MNIST-like)
/// has 784 inputs; the cap stops a header from sizing a Dataset by itself.
inline constexpr std::size_t kMaxInputs = std::size_t{1} << 16;

/// In-memory PLA: a list of (input cube, output character) lines.
struct Pla {
  std::size_t num_inputs = 0;
  sop::Cover cubes;            ///< input parts; `-` becomes an unbound var
  std::vector<char> outputs;   ///< '0', '1', or don't-care ('-'/'~') per cube

  /// Converts to a dataset; requires every cube to be a full minterm and
  /// every output to be a definite '0'/'1' (throws on don't-care outputs).
  [[nodiscard]] data::Dataset to_dataset() const;

  /// PLA with one fully-specified line per dataset row (contest encoding).
  static Pla from_dataset(const data::Dataset& ds);

  /// PLA whose lines are the onset cubes of a cover.
  static Pla from_cover(const sop::Cover& cover, std::size_t num_inputs);
};

/// Parses a single-output PLA; throws std::runtime_error on malformed
/// input, including a `.i` above kMaxInputs (checked before any sizing).
Pla read_pla(std::istream& is);
Pla read_pla_file(const std::string& path);
void write_pla(const Pla& pla, std::ostream& os);
void write_pla_file(const Pla& pla, const std::string& path);

}  // namespace lsml::pla
