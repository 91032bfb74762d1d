#pragma once
// IR-level optimization for the native JIT backend (see CODEGEN.md §3).
//
// The bytecode compiler emits a straight-line register program per integrand;
// expanded symbolic forms repeat whole subtrees (the upwind select evaluates
// s·n once for the condition and once per branch), so the same loads and
// products appear several times. Before the native backend renders C++ it
// lowers the program to an SSA value graph with:
//
//   * value-numbering CSE — structurally identical pure instructions collapse
//     to one value (Loads are keyed by their binding's shape, Consts by the
//     bit pattern of their immediate),
//   * dead-code elimination — only values reachable from the return survive.
//
// Neither pass reorders or rewrites the arithmetic applied to any surviving
// value, so evaluating the optimized graph reproduces the VM's result bit for
// bit — the property the differential tests and the verify-on-first-sweep
// check rely on.

#include <cstdint>
#include <vector>

#include "bytecode.hpp"

namespace finch::codegen {

// One bytecode Program after CSE + DCE, in SSA form: `nodes` is topologically
// ordered (operands precede users) and operand fields name node ids.
struct KernelIr {
  struct Node {
    Op op = Op::Ret;
    int a = -1, b = -1, c = -1;  // operand node ids (per-op arity)
    int slot = 0;                // binding id (Load) / component (LoadNormal)
    double imm = 0.0;            // Const immediate
  };
  std::vector<Node> nodes;
  std::vector<Binding> bindings;  // deduplicated; Node::slot indexes here
  int ret = -1;                   // node id of the program result

  struct Stats {
    int instrs_before = 0;  // executable instructions in the source program
    int nodes_after = 0;    // surviving SSA nodes
  };
  Stats stats;
};

// Lowers one program to the optimized SSA form.
KernelIr lower_kernel_ir(const Program& p);

// Per-node flag: true when the value cannot change across the faces of one
// cell — no LoadNormal and no neighbor-side field load in its transitive
// inputs. The emitter uses this to keep the fused volume/flux kernel honest
// about what may be computed once per (cell, dof).
std::vector<bool> face_invariant_mask(const KernelIr& ir);

// Structural FNV-1a-64 fingerprint: ops, operand edges, binding shapes and
// Const immediates. Runtime array contents and scalar-coefficient values are
// excluded (they arrive through the kernel argument block), so the same
// lowered structure fingerprints identically across runs and processes —
// the IR half of the on-disk kernel cache key.
uint64_t fingerprint(const KernelIr& ir);

}  // namespace finch::codegen
