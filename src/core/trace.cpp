#include "core/trace.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/fault_injector.hpp"
#include "util/bits.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace pfi::trace {

std::string fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNeuron: return "neuron";
    case FaultKind::kWeight: return "weight";
    case FaultKind::kPersist: return "persist";
  }
  PFI_CHECK(false) << "unreachable fault kind";
}

std::int32_t diff_bit(float pre, float post, core::DType dtype,
                      const quant::QuantParams& qparams) {
  std::uint32_t x = 0;
  switch (dtype) {
    case core::DType::kFloat32:
      x = float_to_bits(pre) ^ float_to_bits(post);
      break;
    case core::DType::kFloat16:
      // Software narrowing, not a _Float16 cast: the hardware cast quiets
      // signalling NaNs and canonicalizes payloads, so an exponent flip
      // that produced an sNaN would diff in more than one bit and lose its
      // attribution. f16_bits_from_float round-trips flip_fp16_bit exactly.
      x = static_cast<std::uint32_t>(f16_bits_from_float(pre) ^
                                     f16_bits_from_float(post));
      break;
    case core::DType::kInt8:
      x = static_cast<std::uint32_t>(
          static_cast<std::uint8_t>(quant::quantize_value(pre, qparams)) ^
          static_cast<std::uint8_t>(quant::quantize_value(post, qparams)));
      break;
    case core::DType::kBFloat16:
      x = static_cast<std::uint32_t>(bf16_bits_from_float(pre) ^
                                     bf16_bits_from_float(post));
      break;
  }
  return std::popcount(x) == 1 ? std::countr_zero(x) : -1;
}

namespace {

/// Decimal rendering for the human-readable value fields. Non-finite values
/// become null (JSON has no Inf/NaN literal); the hex bits field is always
/// authoritative.
std::string json_number(float v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(9);  // max_digits10 for binary32
  os << v;
  return os.str();
}

/// Find `"key":` at object level and return the raw value text after it.
/// Sufficient for the writer's own output (keys never appear inside our
/// escaped strings as `"key":` because the colon ends the match).
std::string raw_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  // Scan outside string literals so hostile layer names containing
  // "key": text cannot shadow a real field.
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      if (line.compare(i, needle.size(), needle) == 0) {
        const std::size_t start = i + needle.size();
        std::size_t end = start;
        PFI_CHECK(start < line.size()) << "truncated value for key '" << key
                                       << "' in: " << line;
        if (line[start] == '"') {  // string value: scan to closing quote
          ++end;
          while (end < line.size() && line[end] != '"') {
            if (line[end] == '\\') ++end;
            ++end;
          }
          PFI_CHECK(end < line.size()) << "unterminated string for key '"
                                       << key << "' in: " << line;
          return line.substr(start, end - start + 1);
        }
        if (line[start] == '[') {  // array value: scan to the closing bracket
          while (end < line.size() && line[end] != ']') ++end;
          PFI_CHECK(end < line.size()) << "unterminated array for key '"
                                       << key << "' in: " << line;
          return line.substr(start, end - start + 1);
        }
        while (end < line.size() && line[end] != ',' && line[end] != '}') {
          ++end;
        }
        return line.substr(start, end - start);
      }
      in_string = true;
    }
  }
  PFI_CHECK(false) << "key '" << key << "' not found in trace line: " << line;
}

std::string string_field(const std::string& line, const std::string& key) {
  const std::string raw = raw_field(line, key);
  PFI_CHECK(raw.size() >= 2 && raw.front() == '"' && raw.back() == '"')
      << "key '" << key << "' is not a string in: " << line;
  return util::json_unescape(raw.substr(1, raw.size() - 2));
}

// Strict integer field: the whole value must be a base-10 integer in
// [lo, hi]. Trailing junk ("0junk"), an empty value, non-numeric text and
// overflow are errors that name the key.
std::int64_t int_field(const std::string& line, const std::string& key,
                       std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                       std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  const std::string raw = raw_field(line, key);
  const auto value = util::parse_int(raw, lo, hi);
  PFI_CHECK(value.has_value())
      << "key '" << key << "' holds '" << raw
      << "', not an integer in [" << lo << ", " << hi
      << "], in trace line: " << line;
  return *value;
}

core::DType dtype_from_name(const std::string& name) {
  if (name == "fp32") return core::DType::kFloat32;
  if (name == "fp16") return core::DType::kFloat16;
  if (name == "int8") return core::DType::kInt8;
  if (name == "bf16") return core::DType::kBFloat16;
  PFI_CHECK(false) << "unknown dtype '" << name << "' in trace";
}

}  // namespace

std::string event_to_json(const InjectionEvent& ev) {
  std::ostringstream os;
  os << "{\"trial\":" << ev.trial << ",\"attempt\":" << ev.attempt
     << ",\"rep\":" << ev.rep << ",\"kind\":\"" << fault_kind_name(ev.kind)
     << "\",\"layer\":" << ev.layer << ",\"layer_name\":\""
     << util::json_escape(ev.layer_name) << "\",\"layer_kind\":\""
     << util::json_escape(ev.layer_kind) << "\",\"dtype\":\""
     << core::dtype_name(ev.dtype) << "\",\"coords\":[" << ev.coords[0] << ","
     << ev.coords[1] << "," << ev.coords[2] << "," << ev.coords[3]
     << "],\"flat\":" << ev.flat << ",\"bit\":" << ev.bit
     << ",\"pre\":" << json_number(ev.pre) << ",\"pre_bits\":\""
     << util::float_bits_hex(ev.pre) << "\",\"post\":" << json_number(ev.post)
     << ",\"post_bits\":\"" << util::float_bits_hex(ev.post)
     << "\",\"model\":\"" << util::json_escape(ev.model) << "\"";
  // The event-time stamp exists only for persistent faults; transient
  // events keep the exact field set (and bytes) they always serialized to.
  if (ev.kind == FaultKind::kPersist) os << ",\"time\":" << ev.time;
  os << "}";
  return os.str();
}

InjectionEvent event_from_json(const std::string& line) {
  InjectionEvent ev;
  constexpr auto kI32Min = std::numeric_limits<std::int32_t>::min();
  constexpr auto kI32Max = std::numeric_limits<std::int32_t>::max();
  ev.trial = static_cast<std::uint64_t>(int_field(line, "trial", 0));
  ev.attempt = static_cast<std::uint64_t>(int_field(line, "attempt", 0));
  ev.rep = static_cast<std::int32_t>(int_field(line, "rep", kI32Min, kI32Max));
  const std::string kind = string_field(line, "kind");
  PFI_CHECK(kind == "neuron" || kind == "weight" || kind == "persist")
      << "unknown fault kind '" << kind << "' in trace";
  ev.kind = kind == "neuron"
                ? FaultKind::kNeuron
                : (kind == "weight" ? FaultKind::kWeight : FaultKind::kPersist);
  ev.layer = int_field(line, "layer");
  ev.layer_name = string_field(line, "layer_name");
  ev.layer_kind = string_field(line, "layer_kind");
  ev.dtype = dtype_from_name(string_field(line, "dtype"));
  const std::string coords = raw_field(line, "coords");
  // Exactly "[a,b,c,d]", each a strict integer.
  PFI_CHECK(!coords.empty() && coords.front() == '[')
      << "bad coords '" << coords << "' in trace";
  std::size_t pos = 1;
  for (int i = 0; i < 4; ++i) {
    const std::size_t end = coords.find(i < 3 ? ',' : ']', pos);
    const auto c = end == std::string::npos
                       ? std::nullopt
                       : util::parse_int(coords.substr(pos, end - pos));
    PFI_CHECK(c.has_value()) << "bad coords '" << coords << "' in trace";
    ev.coords[i] = *c;
    pos = end + 1;
  }
  PFI_CHECK(pos == coords.size()) << "bad coords '" << coords << "' in trace";
  ev.flat = int_field(line, "flat");
  ev.bit = static_cast<std::int32_t>(int_field(line, "bit", kI32Min, kI32Max));
  // A recorded flip attribution must fit the recorded dtype's own
  // representation: diff_bit=28 on an fp16 event can only mean a corrupted
  // or hand-edited trace, and accepting it would push an impossible flip
  // through replay. The replayer checks dtype against per-layer resolution;
  // this is the parse-time half of that contract.
  PFI_CHECK(ev.bit >= -1 && ev.bit < core::dtype_bit_width(ev.dtype))
      << "trace event records diff_bit " << ev.bit << " but dtype '"
      << core::dtype_name(ev.dtype) << "' is only "
      << core::dtype_bit_width(ev.dtype)
      << " bits wide — corrupted trace line: " << line;
  ev.pre = util::float_from_bits_hex(string_field(line, "pre_bits"));
  ev.post = util::float_from_bits_hex(string_field(line, "post_bits"));
  ev.model = string_field(line, "model");
  if (ev.kind == FaultKind::kPersist) {
    ev.time = static_cast<std::uint64_t>(int_field(line, "time", 0));
  }
  return ev;
}

std::string trace_to_jsonl(const std::vector<InjectionEvent>& events) {
  std::string out;
  for (const InjectionEvent& ev : events) {
    out += event_to_json(ev);
    out += '\n';
  }
  return out;
}

void write_trace_jsonl(const std::string& path,
                       const std::vector<InjectionEvent>& events) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  PFI_CHECK(out.good()) << "cannot open '" << path << "' for writing";
  out << trace_to_jsonl(events);
  PFI_CHECK(out.good()) << "write to '" << path << "' failed";
}

std::vector<InjectionEvent> read_trace_jsonl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PFI_CHECK(in.good()) << "cannot open trace '" << path << "'";
  std::vector<InjectionEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    events.push_back(event_from_json(line));
  }
  return events;
}

std::vector<std::vector<InjectionEvent>> split_reps(
    const std::vector<InjectionEvent>& events) {
  std::vector<std::vector<InjectionEvent>> reps;
  for (const InjectionEvent& ev : events) {
    if (reps.empty() || reps.back().back().attempt != ev.attempt ||
        reps.back().back().rep != ev.rep) {
      reps.emplace_back();
    }
    reps.back().push_back(ev);
  }
  return reps;
}

void TraceReplayer::arm(std::span<const InjectionEvent> rep_events) {
  for (const InjectionEvent& ev : rep_events) {
    // Per-layer resolution configs make dtype a layer property; the event's
    // recorded dtype must match the replica's resolution for THAT layer.
    PFI_CHECK(ev.dtype == fi_.layer_dtype(ev.layer))
        << "trace event on layer " << ev.layer << " recorded at dtype "
        << core::dtype_name(ev.dtype)
        << " cannot replay on an injector resolving that layer as "
        << core::dtype_name(fi_.layer_dtype(ev.layer));
    // Persistent events re-assert immediately: the recorded post value is
    // written into the weight's deployed representation right now, and it
    // stays there across clear() until heal_persistent_faults(). Replaying
    // every persist event with time <= t in stream order reconstructs the
    // exact weight state of simulated event t (later writes to the same
    // position land last, as they did live).
    if (ev.kind == FaultKind::kPersist) {
      fi_.write_persistent_value(ev.layer, ev.flat, ev.post, ev.time,
                                 ev.model);
      continue;
    }
    // A constant fault writes the recorded post value at the recorded
    // position; because the hook applies it after dtype emulation, exactly
    // where the original model ran, the corrupted tensor is reproduced
    // bit-for-bit regardless of what the original error model computed.
    if (ev.kind == FaultKind::kNeuron) {
      fi_.declare_neuron_fault({.layer = ev.layer,
                                .batch = ev.coords[0],
                                .c = ev.coords[1],
                                .h = ev.coords[2],
                                .w = ev.coords[3]},
                               core::constant_value(ev.post));
    } else {
      fi_.declare_weight_fault({.layer = ev.layer,
                                .out_c = ev.coords[0],
                                .in_c = ev.coords[1],
                                .kh = ev.coords[2],
                                .kw = ev.coords[3]},
                               core::constant_value(ev.post));
    }
  }
}

Tensor TraceReplayer::replay(const Tensor& input,
                             std::span<const InjectionEvent> rep_events) {
  fi_.clear();
  arm(rep_events);
  Tensor out = fi_.forward(input);
  fi_.clear();
  // clear() deliberately leaves persistent faults in place (that is their
  // defining property); the one-shot replay heals them so the injector
  // returns to golden like it always has. No-op for transient-only reps.
  fi_.heal_persistent_faults();
  return out;
}

}  // namespace pfi::trace
