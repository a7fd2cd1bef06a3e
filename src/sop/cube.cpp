#include "sop/cube.hpp"

#include <algorithm>

namespace lsml::sop {

Cube Cube::minterm(const core::BitVec& row) {
  Cube c(row.size());
  c.mask.fill(true);
  c.value = row;
  return c;
}

bool Cube::covers_row(const core::BitVec& row) const {
  // Covered iff row agrees with value on every bound variable.
  const std::size_t nw = mask.num_words();
  for (std::size_t w = 0; w < nw; ++w) {
    if ((row.word(w) ^ value.word(w)) & mask.word(w)) {
      return false;
    }
  }
  return true;
}

bool Cube::contains(const Cube& other) const {
  // this ⊇ other iff this binds a subset of other's literals, with equal
  // polarity on the shared ones.
  const std::size_t nw = mask.num_words();
  for (std::size_t w = 0; w < nw; ++w) {
    if (mask.word(w) & ~other.mask.word(w)) {
      return false;
    }
    if ((value.word(w) ^ other.value.word(w)) & mask.word(w)) {
      return false;
    }
  }
  return true;
}

bool cover_covers_row(const Cover& cover, const core::BitVec& row) {
  return std::any_of(cover.begin(), cover.end(),
                     [&](const Cube& c) { return c.covers_row(row); });
}

core::BitVec cover_predict(const Cover& cover, const data::Dataset& ds) {
  core::BitVec out(ds.num_rows());
  const auto rows = dataset_rows(ds);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (cover_covers_row(cover, rows[r])) {
      out.set(r, true);
    }
  }
  return out;
}

void remove_absorbed(Cover& cover) {
  // Wider cubes (fewer literals) absorb narrower ones; sort by literal count
  // so each cube only needs to be checked against earlier (wider) cubes.
  std::sort(cover.begin(), cover.end(), [](const Cube& a, const Cube& b) {
    return a.num_literals() < b.num_literals();
  });
  Cover kept;
  kept.reserve(cover.size());
  for (const Cube& c : cover) {
    const bool absorbed = std::any_of(
        kept.begin(), kept.end(), [&](const Cube& k) { return k.contains(c); });
    if (!absorbed) {
      kept.push_back(c);
    }
  }
  cover = std::move(kept);
}

std::vector<core::BitVec> dataset_rows(const data::Dataset& ds) {
  std::vector<core::BitVec> rows(ds.num_rows(),
                                 core::BitVec(ds.num_inputs()));
  for (std::size_t c = 0; c < ds.num_inputs(); ++c) {
    const auto& col = ds.column(c);
    for (std::size_t r = 0; r < ds.num_rows(); ++r) {
      if (col.get(r)) {
        rows[r].set(c, true);
      }
    }
  }
  return rows;
}

}  // namespace lsml::sop
