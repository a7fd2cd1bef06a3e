#include "aig/aig_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace lsml::aig {

void write_aag(const Aig& aig, std::ostream& os) {
  // A default/moved-from Aig can have zero nodes (not even the constant);
  // num_nodes() - 1 and num_ands() would underflow to 0xFFFFFFFF and emit
  // garbage. Such an AIG is written as the empty "aag 0 0 0 0 0" module.
  const bool degenerate = aig.num_nodes() == 0;
  const std::uint32_t m =
      degenerate ? 0 : aig.num_nodes() - 1;  // max variable index
  const std::uint32_t i = degenerate ? 0 : aig.num_pis();
  const std::uint32_t a = degenerate ? 0 : aig.num_ands();
  os << "aag " << m << ' ' << i << " 0 " << aig.num_outputs() << ' ' << a
     << '\n';
  for (std::uint32_t k = 0; k < i; ++k) {
    os << aig.pi(k) << '\n';
  }
  for (Lit out : aig.outputs()) {
    os << out << '\n';
  }
  for (std::uint32_t v = i + 1; v <= m; ++v) {
    const Node& n = aig.node(v);
    os << make_lit(v, false) << ' ' << n.fanin0 << ' ' << n.fanin1 << '\n';
  }
}

void write_aag_file(const Aig& aig, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  write_aag(aig, os);
}

Aig read_aag(std::istream& is) {
  std::string magic;
  std::uint32_t m = 0;
  std::uint32_t i = 0;
  std::uint32_t l = 0;
  std::uint32_t o = 0;
  std::uint32_t a = 0;
  if (!(is >> magic >> m >> i >> l >> o >> a) || magic != "aag") {
    throw std::runtime_error("read_aag: bad header");
  }
  if (l != 0) {
    throw std::runtime_error("read_aag: latches not supported");
  }
  if (static_cast<std::uint64_t>(i) + a != m) {
    throw std::runtime_error("read_aag: non-contiguous variable numbering");
  }
  // Literals are 32-bit (2 * var + complement): no variable above
  // lit_var(~0) can be referenced, and M + 1 below cannot wrap.
  if (m > lit_var(~Lit{0})) {
    throw std::runtime_error("read_aag: M exceeds the literal range");
  }
  // Every literal is checked against M before it indexes anything.
  const auto var_of = [m](Lit lit, const char* what) {
    if (lit_var(lit) > m) {
      throw std::runtime_error(std::string("read_aag: ") + what +
                               " variable exceeds M");
    }
    return lit_var(lit);
  };
  Aig aig(i);
  std::vector<Lit> pi_lits(i);
  for (std::uint32_t k = 0; k < i; ++k) {
    Lit lit = 0;
    if (!(is >> lit) || lit_compl(lit)) {
      throw std::runtime_error("read_aag: bad input literal");
    }
    var_of(lit, "input");
    pi_lits[k] = lit;
  }
  std::vector<Lit> out_lits(o);
  for (auto& lit : out_lits) {
    if (!(is >> lit)) {
      throw std::runtime_error("read_aag: bad output literal");
    }
    var_of(lit, "output");
  }
  // Map from file variable to our literal. PIs are expected in order
  // 2,4,6,... as AIGER recommends; we remap defensively anyway. Variable 0
  // is the constant; everything else must be defined once, before use.
  std::vector<Lit> map(m + 1, kLitFalse);
  std::vector<bool> defined(m + 1, false);
  defined[0] = true;
  for (std::uint32_t k = 0; k < i; ++k) {
    const std::uint32_t v = lit_var(pi_lits[k]);
    if (defined[v]) {
      throw std::runtime_error("read_aag: input redefines variable " +
                               std::to_string(v));
    }
    defined[v] = true;
    map[v] = aig.pi(k);
  }
  for (std::uint32_t k = 0; k < a; ++k) {
    Lit lhs = 0;
    Lit rhs0 = 0;
    Lit rhs1 = 0;
    if (!(is >> lhs >> rhs0 >> rhs1) || lit_compl(lhs)) {
      throw std::runtime_error("read_aag: bad and line");
    }
    const std::uint32_t v = var_of(lhs, "and");
    const std::uint32_t v0 = var_of(rhs0, "fanin");
    const std::uint32_t v1 = var_of(rhs1, "fanin");
    if (defined[v]) {
      throw std::runtime_error("read_aag: and line redefines variable " +
                               std::to_string(v));
    }
    if (!defined[v0] || !defined[v1]) {
      throw std::runtime_error("read_aag: and line uses undefined variable " +
                               std::to_string(defined[v0] ? v1 : v0));
    }
    map[v] = aig.and2(lit_notc(map[v0], lit_compl(rhs0)),
                      lit_notc(map[v1], lit_compl(rhs1)));
    defined[v] = true;
  }
  for (Lit lit : out_lits) {
    aig.add_output(lit_notc(map[lit_var(lit)], lit_compl(lit)));
  }
  return aig;
}

Aig read_aag_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open: " + path);
  }
  return read_aag(is);
}

}  // namespace lsml::aig
