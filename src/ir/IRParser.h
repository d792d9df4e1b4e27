//===- ir/IRParser.h - Textual IR input -------------------------*- C++ -*-===//
//
// Part of the ssalive project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the textual form produced by IRPrinter. Tests and examples use it
/// to state programs compactly, and the server reads untrusted module text
/// off the wire through it. Values may be assigned more than once in the
/// input (non-SSA programs destined for SSA construction); the SSA verifier
/// decides whether a parsed function is in SSA form.
///
/// Parsing is linear in the length of the text: one left-to-right pass with
/// hash-keyed symbol tables whose keys are views into the input, so the text
/// must outlive the call (not the result). Malformed input, including an
/// immediate outside the int64 range, yields a diagnostic and never throws.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_IRPARSER_H
#define SSALIVE_IR_IRPARSER_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ssalive {

class Function;

/// Result of a parse: either a function or a diagnostic.
struct ParseResult {
  std::unique_ptr<Function> Func; ///< Null on error.
  std::string Error;              ///< Empty on success; "line N: msg" else.
};

/// Parses one function. Grammar (line oriented, '#' or ';' comments):
/// \code
///   func @name {
///   label:
///     %v = param 0 | const 17 | copy %a | add %a, %b | ... |
///          phi [%a, label], [%b, label] | opaque %a, %b
///     jump label | branch %c, label, label | ret [%v]
///   }
/// \endcode
ParseResult parseFunction(std::string_view Text);

/// Result of parsing a multi-function module.
struct ModuleParseResult {
  std::vector<std::unique_ptr<Function>> Funcs; ///< Empty on error.
  std::string Error; ///< Empty on success; "function N, line L: msg" else.
};

/// Parses a sequence of functions in the parseFunction() grammar, separated
/// by whitespace/comments. The batch tools consume whole .ssair modules
/// through this entry point.
ModuleParseResult parseModule(std::string_view Text);

} // namespace ssalive

#endif // SSALIVE_IR_IRPARSER_H
