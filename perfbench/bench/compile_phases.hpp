// The Domino compiler's phases called one at a time, so the traced run can
// time each phase from outside the compiler.
//
// compile_by_phase makes exactly the calls domino::compile(ast, {}, 1)
// makes (sema, lower, optimize, the serialized schedule, and the packed
// schedule when the serialized one does not fit), after lexing and
// parsing the source. The self-tests require its PVSM to equal compile()'s
// for every app, so the domino.*_us metrics time the real compiler.
#pragma once

#include <cstddef>
#include <string>

#include "bench/spans.hpp"
#include "domino/ast.hpp"
#include "domino/compiler.hpp"

namespace perfbench {

struct PhaseStats {
  double lex_us = 0.0;
  /// parse() lexes the source itself, so this includes a second lex.
  double parse_us = 0.0;
  double sema_us = 0.0;
  double lower_us = 0.0;
  double optimize_us = 0.0;
  /// Every pipeline() call plus the machine fit check.
  double pipeline_us = 0.0;
  std::size_t tokens = 0;
  std::size_t lowered_instrs = 0;
  std::size_t stages = 0;
};

/// Compile `source` for the MP5 target (one reserved address-resolution
/// stage) phase by phase, one span per phase. `ast_out` receives the
/// parsed program.
mp5::domino::CompileResult compile_by_phase(const std::string& source,
                                            SpanRecorder& spans,
                                            PhaseStats& stats,
                                            mp5::domino::Ast& ast_out);

} // namespace perfbench
