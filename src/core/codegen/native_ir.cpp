#include "native_ir.hpp"

#include <cstring>
#include <map>
#include <tuple>

#include "runtime/hash.hpp"

namespace finch::codegen {

namespace {

// Canonical shape of a binding: everything that determines which value a Load
// produces, with no raw pointers (entities are unique by name) and no scalar
// values (scalars are runtime kernel arguments).
std::string binding_signature(const Binding& b) {
  std::string s;
  s += static_cast<char>('0' + static_cast<int>(b.source));
  s += '|';
  s += b.debug_name;
  s += '|';
  for (int k = 0; k < b.n_idx; ++k) {
    s += std::to_string(b.loop_slot[static_cast<size_t>(k)]);
    s += ':';
    s += std::to_string(b.stride[static_cast<size_t>(k)]);
    s += ',';
  }
  return s;
}

uint64_t bits_of(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

// Operand arity per opcode (how many of a/b/c are live).
int arity(Op op) {
  switch (op) {
    case Op::Const:
    case Op::Load:
    case Op::LoadNormal:
    case Op::LoadDt:
      return 0;
    case Op::Neg:
    case Op::MathExp:
    case Op::MathSqrt:
    case Op::MathAbs:
    case Op::MathSin:
    case Op::MathCos:
    case Op::MathLog:
    case Op::Ret:
      return 1;
    case Op::Select:
      return 3;
    default:
      return 2;  // Add..Div, Pow, Cmp*
  }
}

}  // namespace

KernelIr lower_kernel_ir(const Program& p) {
  KernelIr ir;
  // Binding dedup: signature -> ir binding id.
  std::map<std::string, int> binding_ids;
  // Value numbering: structural key -> node id.
  using Key = std::tuple<int, int, int, int, int, uint64_t>;
  std::map<Key, int> values;
  std::vector<int> reg_value(256, -1);  // register -> node id of its live def

  for (const Instr& in : p.code) {
    if (in.op == Op::Ret) {
      ir.ret = reg_value[in.a];
      break;
    }
    ++ir.stats.instrs_before;
    KernelIr::Node n;
    n.op = in.op;
    n.imm = in.op == Op::Const ? in.imm : 0.0;
    int slot = 0;
    if (in.op == Op::Load) {
      const Binding& b = p.bindings[static_cast<size_t>(in.slot)];
      const std::string sig = binding_signature(b);
      auto [it, fresh] = binding_ids.try_emplace(sig, static_cast<int>(ir.bindings.size()));
      if (fresh) ir.bindings.push_back(b);
      slot = it->second;
    } else if (in.op == Op::LoadNormal) {
      slot = in.slot;
    }
    n.slot = slot;
    const int ar = arity(in.op);
    if (ar >= 1) n.a = reg_value[in.a];
    if (ar >= 2) n.b = reg_value[in.b];
    if (ar >= 3) n.c = reg_value[in.c];
    const Key key{static_cast<int>(in.op), n.a, n.b, n.c, slot,
                  in.op == Op::Const ? bits_of(in.imm) : 0};
    auto [it, fresh] = values.try_emplace(key, static_cast<int>(ir.nodes.size()));
    if (fresh) ir.nodes.push_back(n);
    reg_value[in.dst] = it->second;
  }

  // DCE: compact to the nodes reachable from the return value. Node ids are
  // topological (operands have smaller ids), so one backward marking pass and
  // one forward renumbering pass suffice.
  std::vector<bool> live(ir.nodes.size(), false);
  if (ir.ret >= 0) live[static_cast<size_t>(ir.ret)] = true;
  for (size_t i = ir.nodes.size(); i-- > 0;) {
    if (!live[i]) continue;
    const auto& n = ir.nodes[i];
    if (n.a >= 0) live[static_cast<size_t>(n.a)] = true;
    if (n.b >= 0) live[static_cast<size_t>(n.b)] = true;
    if (n.c >= 0) live[static_cast<size_t>(n.c)] = true;
  }
  std::vector<int> renum(ir.nodes.size(), -1);
  std::vector<KernelIr::Node> packed;
  packed.reserve(ir.nodes.size());
  for (size_t i = 0; i < ir.nodes.size(); ++i) {
    if (!live[i]) continue;
    KernelIr::Node n = ir.nodes[i];
    if (n.a >= 0) n.a = renum[static_cast<size_t>(n.a)];
    if (n.b >= 0) n.b = renum[static_cast<size_t>(n.b)];
    if (n.c >= 0) n.c = renum[static_cast<size_t>(n.c)];
    renum[i] = static_cast<int>(packed.size());
    packed.push_back(n);
  }
  if (ir.ret >= 0) ir.ret = renum[static_cast<size_t>(ir.ret)];
  ir.nodes = std::move(packed);
  ir.stats.nodes_after = static_cast<int>(ir.nodes.size());
  return ir;
}

std::vector<bool> face_invariant_mask(const KernelIr& ir) {
  std::vector<bool> inv(ir.nodes.size(), true);
  for (size_t i = 0; i < ir.nodes.size(); ++i) {
    const auto& n = ir.nodes[i];
    bool ok = n.op != Op::LoadNormal;
    if (n.op == Op::Load &&
        ir.bindings[static_cast<size_t>(n.slot)].source == Binding::Source::FieldNeighbor)
      ok = false;
    if (n.a >= 0) ok = ok && inv[static_cast<size_t>(n.a)];
    if (n.b >= 0) ok = ok && inv[static_cast<size_t>(n.b)];
    if (n.c >= 0) ok = ok && inv[static_cast<size_t>(n.c)];
    inv[i] = ok;
  }
  return inv;
}

uint64_t fingerprint(const KernelIr& ir) {
  uint64_t h = rt::kFnvOffset;
  for (const auto& n : ir.nodes) {
    const int32_t head[5] = {static_cast<int32_t>(n.op), n.a, n.b, n.c, n.slot};
    h = rt::fnv1a64(head, sizeof head, h);
    if (n.op == Op::Const) {
      const uint64_t bits = bits_of(n.imm);
      h = rt::fnv1a64(&bits, sizeof bits, h);
    }
  }
  for (const auto& b : ir.bindings) h = rt::fnv1a64(binding_signature(b), h);
  const int32_t tail = ir.ret;
  return rt::fnv1a64(&tail, sizeof tail, h);
}

}  // namespace finch::codegen
