// Context-image serialization: the deployable artifact of the toolflow.
//
// In the real system the generated contexts are loaded into the per-PE,
// C-Box and CCU context memories (BRAMs) before the first invocation and the
// live-in/out bindings are carried by tokens. This module persists exactly
// that package — widths, per-context hex words and bindings — as a JSON
// document (the paper's interchange format of choice, §IV-B), so a schedule
// can be generated once and re-run or inspected later; decode restores a
// bit-identical ContextImages. The document's layout, and that of a live
// binding, is stated once (json.hpp record layouts) and run both ways.
#pragma once

#include <string_view>

#include "ctx/contexts.hpp"
#include "json/json.hpp"

namespace cgra {

/// Serializes images (bit-exact round trip guaranteed with fromJson),
/// keys sorted at every level.
json::Value contextImagesToJson(const ContextImages& images);

/// Parses a document produced by contextImagesToJson; throws cgra::Error on
/// malformed or inconsistent input (a missing field, a value of the wrong
/// type or out of its member's range, width/count mismatches).
ContextImages contextImagesFromJson(const json::Value& doc);

/// Visits the keys of a context-images document in ascending order; defined
/// for json::FieldEncoder and json::FieldDecoder.
template <class Coder, class Images>
void contextImagesFields(Coder& c, Images& images);

/// The context-images document as a nested record (schedule artifacts
/// attach it as `"contexts"`).
inline constexpr auto kContextImagesLayout = json::layout<8>(
    [](auto& c, auto& images) { contextImagesFields(c, images); });

/// The layout of a live binding. `reg` names its register key: "reg" in
/// context images, "vreg" in schedules; keys are visited in ascending
/// order, so it goes before or after "var".
inline auto liveBindingLayout(const char* reg) {
  const bool regFirst = std::string_view(reg) < "var";
  return json::layout<3>([reg, regFirst](auto& c, auto& b) {
    c.field("pe", b.pe);
    if (regFirst) c.field(reg, b.vreg);
    c.field("var", b.var);
    if (!regFirst) c.field(reg, b.vreg);
  });
}

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
