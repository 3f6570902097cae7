#include "src/serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/sim_time.h"
#include "src/harness/exit_codes.h"

namespace byterobust {
namespace {

// ---------------------------------------------------------------------------
// Strict flat-JSON tokenizer: strings, numbers, true/false/null. Nested
// objects or arrays are rejected — a request is a flat bag of scalars, and
// anything else is a malformed request, not data to guess at.
// ---------------------------------------------------------------------------

void SkipWs(const std::string& s, std::size_t* pos) {
  while (*pos < s.size() && std::isspace(static_cast<unsigned char>(s[*pos])) != 0) {
    ++*pos;
  }
}

bool ParseJsonString(const std::string& s, std::size_t* pos, std::string* out,
                     std::string* error) {
  out->clear();
  if (*pos >= s.size() || s[*pos] != '"') {
    *error = "expected a string";
    return false;
  }
  ++*pos;
  while (*pos < s.size()) {
    const char c = s[(*pos)++];
    if (c == '"') {
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (*pos >= s.size()) {
      break;
    }
    const char esc = s[(*pos)++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (*pos + 4 > s.size()) {
          *error = "truncated \\u escape";
          return false;
        }
        // All four characters must be hex digits: strtol alone would skip
        // leading whitespace and accept a sign, letting "\u+12f" through.
        long code = 0;
        bool hex_ok = true;
        for (std::size_t i = 0; i < 4; ++i) {
          const unsigned char h = static_cast<unsigned char>(s[*pos + i]);
          if (std::isxdigit(h) == 0) {
            hex_ok = false;
            break;
          }
          const long digit = std::isdigit(h) != 0
                                 ? h - '0'
                                 : 10 + (std::tolower(h) - 'a');
          code = code * 16 + digit;
        }
        if (!hex_ok) {
          *error = "malformed \\u escape";
          return false;
        }
        if (code > 0xFF) {
          *error = "unsupported \\u escape (only \\u00XX byte escapes accepted)";
          return false;
        }
        out->push_back(static_cast<char>(code));
        *pos += 4;
        break;
      }
      default:
        *error = std::string("unsupported escape '\\") + esc + "'";
        return false;
    }
  }
  *error = "unterminated string";
  return false;
}

struct JsonScalar {
  enum Kind { kString, kNumber, kBool, kNull } kind = kNull;
  std::string str;
  double num = 0.0;
  bool boolean = false;
};

bool ParseJsonScalar(const std::string& s, std::size_t* pos, JsonScalar* out,
                     std::string* error) {
  SkipWs(s, pos);
  if (*pos >= s.size()) {
    *error = "truncated request";
    return false;
  }
  const char c = s[*pos];
  if (c == '"') {
    out->kind = JsonScalar::kString;
    return ParseJsonString(s, pos, &out->str, error);
  }
  if (c == '{' || c == '[') {
    *error = "nested values are not allowed in a request";
    return false;
  }
  if (s.compare(*pos, 4, "true") == 0) {
    out->kind = JsonScalar::kBool;
    out->boolean = true;
    *pos += 4;
    return true;
  }
  if (s.compare(*pos, 5, "false") == 0) {
    out->kind = JsonScalar::kBool;
    out->boolean = false;
    *pos += 5;
    return true;
  }
  if (s.compare(*pos, 4, "null") == 0) {
    out->kind = JsonScalar::kNull;
    *pos += 4;
    return true;
  }
  char* end = nullptr;
  out->num = std::strtod(s.c_str() + *pos, &end);
  if (end == s.c_str() + *pos) {
    *error = "malformed value";
    return false;
  }
  out->kind = JsonScalar::kNumber;
  *pos = static_cast<std::size_t>(end - s.c_str());
  return true;
}

bool ExpectNumber(const JsonScalar& v, const std::string& key, double* out,
                  std::string* error) {
  if (v.kind != JsonScalar::kNumber) {
    *error = "field '" + key + "' must be a number";
    return false;
  }
  *out = v.num;
  return true;
}

// A number inside `range`; NaN is out of every range.
bool ExpectNumberIn(const JsonScalar& v, const std::string& key, const ExternalRange& range,
                    double* out, std::string* error) {
  if (!ExpectNumber(v, key, out, error)) {
    return false;
  }
  if (!range.Contains(*out)) {
    *error = key + " must be in " + range.text;
    return false;
  }
  return true;
}

bool ExpectString(const JsonScalar& v, const std::string& key, std::string* out,
                  std::string* error) {
  if (v.kind != JsonScalar::kString) {
    *error = "field '" + key + "' must be a string";
    return false;
  }
  *out = v.str;
  return true;
}

std::string FormatCount(std::uint64_t n) { return std::to_string(n); }

}  // namespace

bool ParseServeRequest(const std::string& line, ServeRequest* request, std::string* error) {
  std::size_t pos = 0;
  SkipWs(line, &pos);
  if (pos >= line.size() || line[pos] != '{') {
    *error = "request must be a JSON object";
    return false;
  }
  ++pos;
  bool saw_op = false;
  CampaignRequest& c = request->campaign;
  SkipWs(line, &pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
  } else {
    while (true) {
      SkipWs(line, &pos);
      std::string key;
      if (!ParseJsonString(line, &pos, &key, error)) {
        return false;
      }
      SkipWs(line, &pos);
      if (pos >= line.size() || line[pos] != ':') {
        *error = "expected ':' after field '" + key + "'";
        return false;
      }
      ++pos;
      JsonScalar value;
      if (!ParseJsonScalar(line, &pos, &value, error)) {
        return false;
      }
      double num = 0.0;
      if (key == "op") {
        if (!ExpectString(value, key, &request->op, error)) {
          return false;
        }
        saw_op = true;
      } else if (key == "scenario") {
        if (!ExpectString(value, key, &c.scenario, error)) {
          return false;
        }
      } else if (key == "seeds") {
        if (!ExpectNumberIn(value, key, kExternalSeeds, &num, error)) {
          return false;
        }
        c.seeds = static_cast<int>(num);
      } else if (key == "base_seed") {
        if (!ExpectNumberIn(value, key, kExternalBaseSeed, &num, error)) {
          return false;
        }
        c.base_seed = static_cast<std::uint64_t>(num);
      } else if (key == "days") {
        if (value.kind == JsonScalar::kNull) {
          c.days = -1.0;  // scenario default
        } else {
          if (!ExpectNumber(value, key, &num, error)) {
            return false;
          }
          if (!(num > 0.0 && num <= kMaxExternalDays)) {  // also rejects NaN
            *error = "days must be in (0, 36500]";
            return false;
          }
          c.days = num;
        }
      } else if (key == "jobs") {
        if (!ExpectNumberIn(value, key, kExternalJobs, &num, error)) {
          return false;
        }
        c.jobs = static_cast<int>(num);
      } else if (key == "deadline_s") {
        if (!ExpectNumber(value, key, &num, error)) {
          return false;
        }
        if (num < 0.0 || !std::isfinite(num)) {
          *error = "deadline_s must be >= 0";
          return false;
        }
        request->deadline_s = num;
      } else if (key == "journal") {
        if (!ExpectString(value, key, &c.journal_path, error)) {
          return false;
        }
      } else if (key == "resume") {
        if (!ExpectString(value, key, &c.resume_path, error)) {
          return false;
        }
      } else if (key == "retries") {
        if (!ExpectNumberIn(value, key, kExternalRetries, &num, error)) {
          return false;
        }
        c.retries = static_cast<int>(num);
      } else if (key == "journal_sync") {
        if (value.kind != JsonScalar::kBool) {
          *error = "field 'journal_sync' must be a boolean";
          return false;
        }
        c.journal_sync = value.boolean;
      } else {
        *error = "unknown request field '" + key + "'";
        return false;
      }
      SkipWs(line, &pos);
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < line.size() && line[pos] == '}') {
        ++pos;
        break;
      }
      *error = "expected ',' or '}' in request object";
      return false;
    }
  }
  SkipWs(line, &pos);
  if (pos != line.size()) {
    *error = "trailing bytes after request object";
    return false;
  }
  if (!saw_op) {
    *error = "request is missing 'op'";
    return false;
  }
  if (request->op != "campaign" && request->op != "fleet" && request->op != "status" &&
      request->op != "shutdown") {
    *error = "unknown op '" + request->op +
             "' (expected campaign, fleet, status or shutdown)";
    return false;
  }
  if (!c.journal_path.empty() && !c.resume_path.empty()) {
    *error =
        "journal and resume are mutually exclusive "
        "(resume already appends to the journal it resumes)";
    return false;
  }
  return true;
}

std::string JsonEscapeFull(const std::string& s) {
  std::string r;
  r.reserve(s.size() + s.size() / 8);
  for (const char c : s) {
    switch (c) {
      case '"': r += "\\\""; break;
      case '\\': r += "\\\\"; break;
      case '\n': r += "\\n"; break;
      case '\t': r += "\\t"; break;
      case '\r': r += "\\r"; break;
      case '\b': r += "\\b"; break;
      case '\f': r += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          r += buf;
        } else {
          r.push_back(c);
        }
    }
  }
  return r;
}

const char* ServeStatusLabel(int exit_code) {
  switch (exit_code) {
    case kExitOk: return "ok";
    case kExitQuarantine: return "quarantined";
    case kExitInterrupted: return "interrupted";
    case kExitUsage: return "rejected";
    case kExitShed: return "shed";
    default: return "error";
  }
}

std::string RenderResultResponse(const std::string& op, const std::string& scenario,
                                 int exit_code, int seeds_requested, int seeds_done,
                                 const std::string& body) {
  std::string r = "{\"tool\":\"byterobust\",\"op\":\"" + JsonEscapeFull(op) +
                  "\",\"status\":\"" + ServeStatusLabel(exit_code) +
                  "\",\"exit_code\":" + std::to_string(exit_code) + ",\"scenario\":\"" +
                  JsonEscapeFull(scenario) +
                  "\",\"seeds_requested\":" + std::to_string(seeds_requested) +
                  ",\"seeds_done\":" + std::to_string(seeds_done) + ",\"body\":\"" +
                  JsonEscapeFull(body) + "\"}\n";
  return r;
}

std::string RenderErrorResponse(const std::string& op, const std::string& message,
                                int exit_code) {
  return "{\"tool\":\"byterobust\",\"op\":\"" + JsonEscapeFull(op) + "\",\"status\":\"" +
         ServeStatusLabel(exit_code) + "\",\"exit_code\":" + std::to_string(exit_code) +
         ",\"error\":\"" + JsonEscapeFull(message) + "\"}\n";
}

std::string RenderShedResponse(const std::string& op, const std::string& reason,
                               int queue_depth, int max_queue) {
  return "{\"tool\":\"byterobust\",\"op\":\"" + JsonEscapeFull(op) +
         "\",\"status\":\"shed\",\"exit_code\":" + std::to_string(kExitShed) +
         ",\"error\":\"" + JsonEscapeFull(reason) +
         "\",\"queue_depth\":" + std::to_string(queue_depth) +
         ",\"max_queue\":" + std::to_string(max_queue) + "}\n";
}

namespace {
std::string FormatMs(double ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}
}  // namespace

std::string RenderStatusResponse(const ServeStatus& status) {
  return std::string("{\"tool\":\"byterobust\",\"op\":\"status\",\"status\":\"ok\"") +
         ",\"exit_code\":" + std::to_string(kExitOk) +
         ",\"draining\":" + (status.draining ? "true" : "false") +
         ",\"uptime_ticks\":" + FormatCount(status.uptime_ticks) +
         ",\"queue_depth\":" + std::to_string(status.queue_depth) +
         ",\"max_queue\":" + std::to_string(status.max_queue) +
         ",\"active_requests\":" + std::to_string(status.active_requests) +
         ",\"inflight_seeds\":" + std::to_string(status.inflight_seeds) +
         ",\"admitted\":" + FormatCount(status.admitted) +
         ",\"completed\":" + FormatCount(status.completed) +
         ",\"shed\":" + FormatCount(status.shed) +
         ",\"cancelled\":" + FormatCount(status.cancelled) +
         ",\"workers\":" + std::to_string(status.workers) +
         ",\"max_seeds\":" + std::to_string(status.max_seeds) +
         ",\"latency_count\":" + FormatCount(status.latency_count) +
         ",\"latency_p50_ms\":" + FormatMs(status.latency_p50_ms) +
         ",\"latency_p90_ms\":" + FormatMs(status.latency_p90_ms) +
         ",\"latency_p99_ms\":" + FormatMs(status.latency_p99_ms) +
         ",\"latency_max_ms\":" + FormatMs(status.latency_max_ms) + "}\n";
}

bool ExtractJsonStringField(const std::string& line, const std::string& key,
                            std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  std::size_t pos = at + needle.size() - 1;  // the opening quote
  std::string error;
  return ParseJsonString(line, &pos, out, &error);
}

bool ExtractJsonIntField(const std::string& line, const std::string& key, long* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  const long value = std::strtol(start, &end, 10);
  if (end == start) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace byterobust
