#include "ctx/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
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

// The builders append keys in ascending byte order, the order
// json::sortKeys would produce, so documents are canonical as built.

/// One context memory. PE memories also carry `regs_used`, which sorts
/// between the other two keys.
json::Value memoryToJson(const ContextMemory& mem,
                         std::optional<unsigned> regsUsed = std::nullopt) {
  json::Object obj;
  obj.reserve(3);
  json::Array words;
  words.reserve(mem.words.size());
  for (const BitVector& word : mem.words)
    words.emplace_back(contextWordToHex(word));
  obj.append("contexts") = std::move(words);
  if (regsUsed) obj.append("regs_used") = static_cast<std::int64_t>(*regsUsed);
  obj.append("width") = static_cast<std::int64_t>(mem.width);
  return obj;
}

ContextMemory memoryFromJson(const json::Value& v, unsigned expectedCount,
                             const std::string& what) {
  const json::Object& obj = v.asObject();
  const std::int64_t w = obj.at("width").asInt();
  if (w <= 0 || w > 4096) throw Error(what + ": width out of range");
  ContextMemory mem;
  mem.width = static_cast<unsigned>(w);
  const json::Array& words = obj.at("contexts").asArray();
  if (words.size() != expectedCount)
    throw Error(what + ": expected " + std::to_string(expectedCount) +
                " contexts, got " + std::to_string(words.size()));
  mem.words.reserve(words.size());
  for (const json::Value& word : words)
    mem.words.push_back(contextWordFromHex(word.asString(), mem.width));
  return mem;
}

json::Value bindingsToJson(const std::vector<LiveBinding>& bindings) {
  json::Array arr;
  arr.reserve(bindings.size());
  for (const LiveBinding& lb : bindings) {
    json::Object& obj = arr.emplace_back(json::Object()).asObject();
    obj.reserve(3);
    obj.append("pe") = static_cast<std::int64_t>(lb.pe);
    obj.append("reg") = static_cast<std::int64_t>(lb.vreg);
    obj.append("var") = static_cast<std::int64_t>(lb.var);
  }
  return arr;
}

std::vector<LiveBinding> bindingsFromJson(const json::Value& v) {
  std::vector<LiveBinding> out;
  for (const json::Value& entry : v.asArray()) {
    const json::Object& obj = entry.asObject();
    LiveBinding lb;
    lb.var = static_cast<VarId>(obj.at("var").asInt());
    lb.pe = static_cast<PEId>(obj.at("pe").asInt());
    lb.vreg = static_cast<unsigned>(obj.at("reg").asInt());
    out.push_back(lb);
  }
  return out;
}

}  // namespace

json::Value contextImagesToJson(const ContextImages& images) {
  json::Object doc;
  doc.reserve(8);
  doc.append("cbox_memory") = memoryToJson(images.cbox);
  doc.append("cbox_slots_used") =
      static_cast<std::int64_t>(images.cboxSlotsUsed);
  doc.append("ccu_memory") = memoryToJson(images.ccu);
  doc.append("format") = "cgra-contexts-v1";
  doc.append("length") = static_cast<std::int64_t>(images.length);
  doc.append("live_ins") = bindingsToJson(images.liveIns);
  doc.append("live_outs") = bindingsToJson(images.liveOuts);

  json::Array pes;
  pes.reserve(images.pes.size());
  for (PEId p = 0; p < images.pes.size(); ++p)
    pes.push_back(memoryToJson(images.pes[p], images.physRegsUsed[p]));
  doc.append("pe_memories") = std::move(pes);
  return doc;
}

ContextImages contextImagesFromJson(const json::Value& doc) {
  const json::Object& obj = doc.asObject();
  if (!obj.contains("format") || obj.at("format").asString() != "cgra-contexts-v1")
    throw Error("context images: unknown format tag");

  ContextImages img;
  const std::int64_t length = obj.at("length").asInt();
  if (length < 0 || length > (1 << 20))
    throw Error("context images: length out of range");
  img.length = static_cast<unsigned>(length);
  img.cboxSlotsUsed =
      static_cast<unsigned>(obj.at("cbox_slots_used").asInt());

  const json::Array& pes = obj.at("pe_memories").asArray();
  img.pes.reserve(pes.size());
  img.physRegsUsed.reserve(pes.size());
  for (std::size_t p = 0; p < pes.size(); ++p) {
    img.pes.push_back(
        memoryFromJson(pes[p], img.length, "PE memory " + std::to_string(p)));
    img.physRegsUsed.push_back(
        static_cast<unsigned>(pes[p].asObject().at("regs_used").asInt()));
  }
  img.cbox = memoryFromJson(obj.at("cbox_memory"), img.length, "C-Box memory");
  img.ccu = memoryFromJson(obj.at("ccu_memory"), img.length, "CCU memory");
  img.liveIns = bindingsFromJson(obj.at("live_ins"));
  img.liveOuts = bindingsFromJson(obj.at("live_outs"));
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
