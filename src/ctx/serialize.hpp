// Context-image serialization: the deployable artifact of the toolflow.
//
// In the real system the generated contexts are loaded into the per-PE,
// C-Box and CCU context memories (BRAMs) before the first invocation and the
// live-in/out bindings are carried by tokens. This module persists exactly
// that package — widths, per-context hex words and bindings — as a JSON
// document (the paper's interchange format of choice, §IV-B), so a schedule
// can be generated once and re-run or inspected later; decode restores a
// bit-identical ContextImages.
#pragma once

#include "ctx/contexts.hpp"
#include "json/json.hpp"

namespace cgra {

/// Serializes images (bit-exact round trip guaranteed with fromJson),
/// keys sorted at every level.
json::Value contextImagesToJson(const ContextImages& images);

/// Parses a document produced by contextImagesToJson; throws cgra::Error on
/// malformed or inconsistent input (width/count mismatches).
ContextImages contextImagesFromJson(const json::Value& doc);

/// Hex string of one context word, LSB-first bit order, zero-padded to the
/// memory width (exposed for tests and for the Verilog $readmemh flow).
/// contextWordFromHex throws cgra::Error on a length other than
/// ceil(width / 4), a non-hex digit, or a set bit at or above `width`.
std::string contextWordToHex(const BitVector& bits);
BitVector contextWordFromHex(const std::string& hex, unsigned width);

/// Emits a Verilog $readmemh-compatible memory file for one context memory
/// (one hex word per line, comment header).
std::string toMemFile(const ContextMemory& mem, const std::string& label);

}  // namespace cgra
