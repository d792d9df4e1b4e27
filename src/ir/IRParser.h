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
/// open-addressing symbol tables that hold ids, not names (a probe compares
/// the name the Value or BasicBlock keeps). Pending labels are views into
/// the input, so the text must outlive the call (not the result).
/// Malformed input, including an immediate outside the int64 range, yields
/// a diagnostic and never throws.
///
//===----------------------------------------------------------------------===//

#ifndef SSALIVE_IR_IRPARSER_H
#define SSALIVE_IR_IRPARSER_H

#include <cstddef>
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

/// One function's slice of a module text.
struct ModuleChunk {
  /// From just past the previous function's closing '}' (or the start of
  /// the module) through this function's own '}'.
  std::string_view Text;
  /// The module line on which Text begins (1-based).
  std::size_t FirstLine = 1;
};

/// A module text cut at its function boundaries.
struct ModuleSplit {
  std::vector<ModuleChunk> Functions;
  /// Something other than whitespace or comments follows the last '}'.
  bool TrailingInput = false;
};

/// The split contract, shared by every module loader. The grammar has
/// exactly one brace pair per function, so a module splits at every '}'
/// outside a '#'/';' comment; a lexical scan finds them without parsing.
/// The chunks tile the text up to the last '}' with nothing dropped, so
/// the functions can be parsed independently, in any order and on any
/// thread, and parseModuleFunction() reproduces what parseModule() makes
/// of each: the same function, ids and cfgVersion, or the same diagnostic.
/// Chunks are views into \p Text.
ModuleSplit splitModule(std::string_view Text);

/// Parses chunk \p Index (0-based) of a split module. A diagnostic reads as
/// parseModule() reports it: "function <Index + 1>, line L: msg", with L a
/// module line.
ParseResult parseModuleFunction(const ModuleChunk &Chunk, std::size_t Index);

/// parseModule()'s diagnostic for a module with trailing input.
inline constexpr const char *TrailingInputError =
    "trailing input after last function";

/// Parses a sequence of functions in the parseFunction() grammar, separated
/// by whitespace/comments. The batch tools consume whole .ssair modules
/// through this entry point. Serial: splitModule(), then each function in
/// order. The first function that fails to parse decides the error; only a
/// module whose functions all parse can fail with TrailingInputError.
ModuleParseResult parseModule(std::string_view Text);

} // namespace ssalive

#endif // SSALIVE_IR_IRPARSER_H
