#include "ctx/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace cgra {

std::string contextWordToHex(const BitVector& bits) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  std::string out((bits.size() + 3) / 4, '0');
  BitReader br(bits);
  for (std::size_t d = out.size(); d-- > 0;)
    out[d] = kHexDigits[br.read(std::min<unsigned>(4, br.remaining()))];
  return out;
}

BitVector contextWordFromHex(const std::string& hex, unsigned width) {
  if (hex.size() != (width + 3) / 4)
    throw Error("context word hex length " + std::to_string(hex.size()) +
                " does not match width " + std::to_string(width));
  BitPacker bp;
  for (std::size_t d = hex.size(); d-- > 0;) {
    unsigned v = 0;
    if (std::from_chars(&hex[d], &hex[d] + 1, v, 16).ec != std::errc{})
      throw Error("invalid hex digit in context word");
    const auto bits = static_cast<unsigned>(
        std::min<std::size_t>(4, width - bp.bits().size()));
    if ((v >> bits) != 0)
      throw Error("context word hex sets bits above width " +
                  std::to_string(width));
    bp.write(v, bits);
  }
  return bp.take();
}

namespace {

constexpr json::Range kLengths{0, 1 << 20};
constexpr json::Range kWidths{1, 4096};

/// A context word as hex text of its memory's width.
struct HexWord {
  unsigned width;
  static std::string encode(const BitVector& word) {
    return contextWordToHex(word);
  }
  BitVector decode(const std::string& hex) const {
    return contextWordFromHex(hex, width);
  }
};

/// One context memory of `length` words. A PE memory also carries the
/// registers its PE uses, `regs_used`, which sorts between the other keys.
auto memoryLayout(unsigned length) {
  return json::layout<3>([length](auto& c, auto& mem, auto&... regsUsed) {
    c.lookahead("width", mem.width, kWidths);  // the words' hex length
    c.array("contexts", HexWord{mem.width}, mem.words);
    c.check([&mem, length] {
      if (mem.words.size() != length)
        throw Error("context images: expected " + std::to_string(length) +
                    " contexts, got " + std::to_string(mem.words.size()));
    });
    (c.field("regs_used", regsUsed), ...);
    c.field("width", mem.width, kWidths);
  });
}

}  // namespace

template <class Coder, class Images>
void contextImagesFields(Coder& c, Images& img) {
  c.lookahead("length", img.length, kLengths);  // every memory's word count
  const auto memory = memoryLayout(img.length);
  const auto binding = liveBindingLayout("reg");
  c.field("cbox_memory", img.cbox, memory);
  c.field("cbox_slots_used", img.cboxSlotsUsed);
  c.field("ccu_memory", img.ccu, memory);
  c.expect("format", "cgra-contexts-v1");
  c.field("length", img.length, kLengths);
  c.array("live_ins", binding, img.liveIns);
  c.array("live_outs", binding, img.liveOuts);
  c.array("pe_memories", memory, img.pes, img.physRegsUsed);
}

template void contextImagesFields(json::FieldEncoder&, const ContextImages&);
template void contextImagesFields(json::FieldDecoder&, ContextImages&);

json::Value contextImagesToJson(const ContextImages& images) {
  return json::encode(kContextImagesLayout, images);
}

ContextImages contextImagesFromJson(const json::Value& doc) {
  ContextImages img;
  json::decode(kContextImagesLayout, doc, "context images", img);
  return img;
}

std::string toMemFile(const ContextMemory& mem, const std::string& label) {
  std::ostringstream os;
  os << "// " << label << ": " << mem.words.size() << " contexts, "
     << mem.width << " bits each ($readmemh format)\n";
  for (const BitVector& word : mem.words) os << contextWordToHex(word) << '\n';
  return os.str();
}

}  // namespace cgra
