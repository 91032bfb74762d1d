#pragma once
// C++ source-text target: renders the IR as a readable nested-loop kernel in
// the configured assembly order, with the IR's comment nodes inlined —
// "comment nodes to facilitate generation of easily readable code" (§II.A).
// The emitted text is an inspectable artifact (golden-tested); the executable
// path is the bytecode target.

#include <functional>
#include <string>

#include "core/ir/step_program.hpp"

namespace finch::codegen {

// Renders a symbolic integrand as a C expression for the source printers:
// NORMAL_1..3 become the locals normal_x/y/z, conditional() a ternary and
// x^-1 factors a division. The printers differ only in how an entity
// reference reads (`entity`) and how the power function is spelled (`pow_fn`).
using EntityRenderer = std::function<std::string(const sym::EntityRefNode&)>;
std::string c_expr(const sym::Expr& e, const EntityRenderer& entity, const char* pow_fn);

std::string emit_cpp_source(const ir::StepProgram& program, const sym::EntityTable& table);

}  // namespace finch::codegen
