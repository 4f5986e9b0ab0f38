#include "arch/composition.hpp"

#include <algorithm>
#include <map>

#include "support/assert.hpp"
#include "support/dot.hpp"

namespace cgra {

Composition::Composition(std::string name, std::vector<PEDescriptor> pes,
                         Interconnect ic, unsigned contextMemoryLength,
                         unsigned cboxSlots)
    : name_(std::move(name)),
      pes_(std::move(pes)),
      ic_(std::move(ic)),
      contextMemoryLength_(contextMemoryLength),
      cboxSlots_(cboxSlots) {
  validate();
}

const PEDescriptor& Composition::pe(PEId id) const {
  CGRA_ASSERT(id < pes_.size());
  return pes_[id];
}

std::vector<PEId> Composition::dmaPEs() const {
  std::vector<PEId> out;
  for (PEId i = 0; i < numPEs(); ++i)
    if (pes_[i].hasDma()) out.push_back(i);
  return out;
}

std::vector<PEId> Composition::pesSupporting(Op op) const {
  std::vector<PEId> out;
  for (PEId i = 0; i < numPEs(); ++i)
    if (pes_[i].supports(op)) out.push_back(i);
  std::stable_sort(out.begin(), out.end(), [&](PEId a, PEId b) {
    return pes_[a].impl(op).energy < pes_[b].impl(op).energy;
  });
  return out;
}

void Composition::validate() const {
  if (pes_.empty()) throw Error("composition \"" + name_ + "\" has no PEs");
  if (ic_.numPEs() != numPEs())
    throw Error("composition \"" + name_ + "\": interconnect covers " +
                std::to_string(ic_.numPEs()) + " PEs, composition has " +
                std::to_string(numPEs()));
  if (contextMemoryLength_ == 0)
    throw Error("composition \"" + name_ + "\": context memory length is 0");
  if (cboxSlots_ < 2)
    throw Error("composition \"" + name_ + "\": C-Box needs at least 2 slots");
  // The paper allows up to four PEs with a DMA interface (§IV-A.1).
  if (dmaPEs().size() > 4)
    throw Error("composition \"" + name_ + "\": more than 4 DMA PEs");
  if (dmaPEs().empty())
    throw Error("composition \"" + name_ + "\": at least one DMA PE required");
  if (!ic_.stronglyConnected())
    throw Error("composition \"" + name_ + "\": interconnect is not strongly connected");
  for (const PEDescriptor& pe : pes_) {
    if (pe.regfileSize() < 4)
      throw Error("composition \"" + name_ + "\": PE \"" + pe.name() +
                  "\" register file too small");
    // An op-less PE can never host an operation or a route endpoint; such
    // descriptors are reachable via PEDescriptor::fromJson and via careless
    // mutation of op sets, so reject them here rather than failing deep in
    // the scheduler.
    if (pe.ops().empty())
      throw Error("composition \"" + name_ + "\": PE \"" + pe.name() +
                  "\" supports no operations");
  }
}

void Composition::writeJson(json::Writer& w) const {
  w.beginObject();
  w.key("name").value(name_);
  w.key("Number_of_PEs").value(numPEs());
  w.key("PEs").beginObject();
  for (PEId i = 0; i < numPEs(); ++i) {
    w.key(std::to_string(i));
    pes_[i].writeJson(w);
  }
  w.endObject();
  w.key("Interconnect");
  ic_.writeJson(w);
  w.key("Context_memory_length").value(contextMemoryLength_);
  w.key("CBox_slots").value(cboxSlots_);
  w.endObject();
}

std::string Composition::canonicalJson() const {
  json::Writer w;
  writeJson(w);
  return w.take();
}

Composition Composition::fromJson(const json::Value& v) {
  const json::Object& obj = v.asObject();
  const std::string name = obj.at("name").asString();
  const std::int64_t n = obj.at("Number_of_PEs").asInt();
  if (n <= 0 || n > 1024)
    throw Error("composition \"" + name + "\": Number_of_PEs out of range");

  std::vector<PEDescriptor> pes;
  const json::Object& peObj = obj.at("PEs").asObject();
  for (std::int64_t i = 0; i < n; ++i) {
    const json::Value* entry = peObj.find(std::to_string(i));
    if (!entry)
      throw Error("composition \"" + name + "\": missing PE " + std::to_string(i));
    pes.push_back(PEDescriptor::fromJson(*entry));
  }

  Interconnect ic = Interconnect::fromJson(obj.at("Interconnect"),
                                           static_cast<unsigned>(n));

  const std::int64_t ctx = obj.at("Context_memory_length").asInt();
  const std::int64_t cbox = obj.at("CBox_slots").asInt();
  if (ctx <= 0 || ctx > 1 << 20)
    throw Error("composition \"" + name + "\": Context_memory_length out of range");
  if (cbox <= 0 || cbox > 1 << 16)
    throw Error("composition \"" + name + "\": CBox_slots out of range");

  return Composition(name, std::move(pes), std::move(ic),
                     static_cast<unsigned>(ctx), static_cast<unsigned>(cbox));
}

Composition Composition::fromJsonFile(const std::string& path) {
  json::Value doc = json::parseFile(path);
  json::Object& obj = doc.asObject();

  // Directory of the composition file for relative references.
  const std::size_t slash = path.find_last_of('/');
  const std::string baseDir =
      slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
  std::map<std::string, json::Value> cache;
  auto loadRef = [&](const std::string& ref) -> const json::Value& {
    const auto it = cache.find(ref);
    if (it != cache.end()) return it->second;
    const std::string full =
        ref.rfind('/', 0) == 0 ? ref : baseDir + ref;  // absolute or relative
    return cache.emplace(ref, json::parseFile(full)).first->second;
  };

  // Resolve PE references (paper Fig. 8: "0": "cgras/CGRA/SOME_PE.json").
  if (obj.contains("PEs")) {
    for (auto& [key, value] : obj["PEs"].asObject())
      if (value.isString()) value = loadRef(value.asString());
  }
  // Resolve the interconnect reference.
  if (const json::Value* ic = obj.find("Interconnect"); ic && ic->isString())
    obj["Interconnect"] = loadRef(ic->asString());

  return fromJson(doc);
}

std::string Composition::toDot() const {
  DotWriter dot(name_);
  for (PEId i = 0; i < numPEs(); ++i) {
    std::string label = "PE" + std::to_string(i);
    if (pes_[i].hasDma()) label += "\\nDMA";
    if (!pes_[i].supports(Op::IMUL)) label += "\\nno-MUL";
    dot.addNode("pe" + std::to_string(i), label,
                {{"shape", "box"},
                 {"style", pes_[i].hasDma() ? "filled" : "solid"},
                 {"fillcolor", "lightgrey"}});
  }
  for (PEId to = 0; to < numPEs(); ++to)
    for (PEId from : ic_.sources(to))
      dot.addEdge("pe" + std::to_string(from), "pe" + std::to_string(to));
  return dot.str();
}

}  // namespace cgra
