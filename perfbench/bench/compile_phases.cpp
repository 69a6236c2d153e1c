#include "bench/compile_phases.hpp"

#include "common/error.hpp"
#include "domino/lexer.hpp"
#include "domino/lower.hpp"
#include "domino/optimize.hpp"
#include "domino/parser.hpp"
#include "domino/pipeline.hpp"
#include "domino/sema.hpp"

namespace perfbench {

using namespace mp5;

domino::CompileResult compile_by_phase(const std::string& source,
                                       SpanRecorder& spans, PhaseStats& stats,
                                       domino::Ast& ast_out) {
  auto compile_span = spans.open("compile", "domino");
  {
    auto span = spans.open("lex", "domino");
    stats.tokens = domino::lex(source).size();
    stats.lex_us = span.end() / 1e3;
  }
  {
    auto span = spans.open("parse", "domino");
    ast_out = domino::parse(source);
    stats.parse_us = span.end() / 1e3;
  }
  // compile() targets the machine minus the reserved stages.
  banzai::MachineSpec target;
  if (target.max_stages <= 1) {
    throw ResourceError("machine has no stages left after reserving 1");
  }
  target.max_stages -= 1;
  {
    auto span = spans.open("sema", "domino");
    domino::check_semantics(ast_out);
    stats.sema_us = span.end() / 1e3;
  }
  domino::LoweredProgram lowered;
  {
    auto span = spans.open("lower", "domino");
    lowered = domino::lower(ast_out);
    stats.lower_us = span.end() / 1e3;
  }
  stats.lowered_instrs = lowered.instrs.size();
  {
    auto span = spans.open("optimize", "domino");
    domino::optimize(lowered);
    stats.optimize_us = span.end() / 1e3;
  }
  domino::CompileResult result;
  {
    auto span = spans.open("pipeline", "domino");
    domino::PipelineOptions serialize;
    serialize.serialize_stateful = true;
    result.pvsm = domino::pipeline(lowered, serialize);
    result.serialized = true;
    if (!target.fits(result.pvsm)) {
      domino::PipelineOptions packed;
      packed.serialize_stateful = false;
      result.pvsm = domino::pipeline(lowered, packed);
      result.serialized = false;
      target.check(result.pvsm);
    }
    stats.pipeline_us = span.end() / 1e3;
  }
  stats.stages = result.pvsm.stages.size();
  return result;
}

} // namespace perfbench
