#include "pla/pla.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace lsml::pla {

data::Dataset Pla::to_dataset() const {
  data::Dataset ds(num_inputs, cubes.size());
  for (std::size_t r = 0; r < cubes.size(); ++r) {
    if (cubes[r].num_literals() != num_inputs) {
      throw std::runtime_error("Pla::to_dataset: line is not a full minterm");
    }
    for (std::size_t v = 0; v < num_inputs; ++v) {
      ds.set_input(r, v, cubes[r].value.get(v));
    }
    if (outputs[r] != '0' && outputs[r] != '1') {
      throw std::runtime_error(
          std::string("Pla::to_dataset: output '") + outputs[r] +
          "' is not a binary label (don't-care outputs cannot become "
          "dataset labels)");
    }
    ds.set_label(r, outputs[r] == '1');
  }
  return ds;
}

Pla Pla::from_dataset(const data::Dataset& ds) {
  Pla p;
  p.num_inputs = ds.num_inputs();
  p.cubes.reserve(ds.num_rows());
  p.outputs.reserve(ds.num_rows());
  const auto rows = sop::dataset_rows(ds);
  for (std::size_t r = 0; r < ds.num_rows(); ++r) {
    p.cubes.push_back(sop::Cube::minterm(rows[r]));
    p.outputs.push_back(ds.label(r) ? '1' : '0');
  }
  return p;
}

Pla Pla::from_cover(const sop::Cover& cover, std::size_t num_inputs) {
  Pla p;
  p.num_inputs = num_inputs;
  p.cubes = cover;
  p.outputs.assign(cover.size(), '1');
  return p;
}

Pla read_pla(std::istream& is) {
  Pla p;
  std::string line;
  bool saw_inputs = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok) || tok[0] == '#') {
      continue;
    }
    if (tok == ".i") {
      if (!(ls >> p.num_inputs) || p.num_inputs == 0) {
        throw std::runtime_error("read_pla: bad .i value");
      }
      if (p.num_inputs > kMaxInputs) {
        throw std::runtime_error("read_pla: .i " +
                                 std::to_string(p.num_inputs) +
                                 " exceeds the limit of " +
                                 std::to_string(kMaxInputs) + " inputs");
      }
      saw_inputs = true;
    } else if (tok == ".o") {
      std::size_t num_outputs = 0;
      if (!(ls >> num_outputs)) {
        throw std::runtime_error("read_pla: bad .o value");
      }
      if (num_outputs != 1) {
        throw std::runtime_error(
            "read_pla: only single-output PLAs are supported, got .o " +
            std::to_string(num_outputs));
      }
    } else if (tok == ".p" || tok == ".ilb" || tok == ".ob" ||
               tok == ".type") {
      continue;  // header lines we accept but do not need
    } else if (tok == ".e") {
      break;
    } else if (tok[0] == '.') {
      throw std::runtime_error("read_pla: unsupported directive " + tok);
    } else {
      if (!saw_inputs) {
        throw std::runtime_error("read_pla: cube before .i");
      }
      if (tok.size() != p.num_inputs) {
        throw std::runtime_error("read_pla: cube width mismatch");
      }
      std::string out;
      if (!(ls >> out) || out.empty()) {
        throw std::runtime_error("read_pla: missing output part");
      }
      if (out.size() != 1) {
        throw std::runtime_error(
            "read_pla: expected exactly one output column, got '" + out +
            "' (multi-output PLAs are not supported)");
      }
      if (out[0] != '0' && out[0] != '1' && out[0] != '-' && out[0] != '~') {
        throw std::runtime_error("read_pla: bad output character '" + out +
                                 "'");
      }
      std::string extra;
      if (ls >> extra && extra[0] != '#') {
        throw std::runtime_error(
            "read_pla: trailing columns after the output part: '" + extra +
            "'");
      }
      sop::Cube cube(p.num_inputs);
      for (std::size_t v = 0; v < p.num_inputs; ++v) {
        switch (tok[v]) {
          case '0':
            cube.mask.set(v, true);
            break;
          case '1':
            cube.mask.set(v, true);
            cube.value.set(v, true);
            break;
          case '-':
          case '~':
            break;
          default:
            throw std::runtime_error("read_pla: bad cube character");
        }
      }
      p.cubes.push_back(std::move(cube));
      p.outputs.push_back(out[0]);
    }
  }
  return p;
}

Pla read_pla_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open: " + path);
  }
  return read_pla(is);
}

void write_pla(const Pla& pla, std::ostream& os) {
  os << ".i " << pla.num_inputs << "\n.o 1\n.type fr\n.p " << pla.cubes.size()
     << '\n';
  std::string buf(pla.num_inputs, '-');
  for (std::size_t r = 0; r < pla.cubes.size(); ++r) {
    const sop::Cube& c = pla.cubes[r];
    for (std::size_t v = 0; v < pla.num_inputs; ++v) {
      buf[v] = c.mask.get(v) ? (c.value.get(v) ? '1' : '0') : '-';
    }
    os << buf << ' ' << pla.outputs[r] << '\n';
  }
  os << ".e\n";
}

void write_pla_file(const Pla& pla, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  write_pla(pla, os);
}

}  // namespace lsml::pla
