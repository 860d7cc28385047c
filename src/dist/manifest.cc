#include "dist/manifest.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/json.h"

namespace mrcc {
namespace dist {
namespace {

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parses a "0x..." hex string field of 1-16 hex digits (u64 values do
/// not round-trip through JSON numbers — they are double there).
bool ParseHex(const JsonValue* v, uint64_t* out) {
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return false;
  const std::string& s = v->string_value;
  if (s.size() < 3 || s.size() > 18 || s[0] != '0' || s[1] != 'x' ||
      !std::all_of(s.begin() + 2, s.end(),
                   [](char c) { return std::isxdigit(
                                    static_cast<unsigned char>(c)) != 0; })) {
    return false;
  }
  *out = std::strtoull(s.c_str() + 2, nullptr, 16);
  return true;
}

/// Parses a count field: a JSON number that is a whole value in
/// [0, 2^53], the integers a double holds exactly. Anything else —
/// negative, fractional, huge, NaN, absent — is false, never a cast of
/// an out-of-range double.
bool ParseCount(const JsonValue* v, uint64_t* out) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
  const double x = v->number_value;
  if (!(x >= 0.0 && x <= 9007199254740992.0) || x != std::floor(x)) {
    return false;
  }
  *out = static_cast<uint64_t>(x);
  return true;
}

}  // namespace

std::string BuildManifest::ToJson() const {
  std::string out = "{\"schema_version\":" + std::to_string(kSchemaVersion);
  out += ",\"dataset\":";
  AppendJsonEscaped(dataset_path, &out);
  out += ",\"fingerprint\":";
  AppendJsonEscaped(Hex(fingerprint), &out);
  out += ",\"params_hash\":";
  AppendJsonEscaped(Hex(params_hash), &out);
  out += ",\"num_points\":" + std::to_string(num_points);
  out += ",\"num_dims\":" + std::to_string(num_dims);
  out += ",\"shards\":[";
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"begin\":" + std::to_string(shards[i].begin);
    out += ",\"end\":" + std::to_string(shards[i].end);
    out += ",\"done\":";
    out += shards[i].done ? "true" : "false";
    out += '}';
  }
  out += "]}";
  return out;
}

Result<BuildManifest> BuildManifest::FromJson(const std::string& json) {
  Result<JsonValue> parsed = ParseJson(json);
  MRCC_RETURN_IF_ERROR(parsed.status());
  const JsonValue& root = *parsed;
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("manifest JSON must be an object");
  }
  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument("manifest lacks schema_version");
  }
  if (version->number_value != kSchemaVersion) {
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%g", version->number_value);
    return Status::InvalidArgument(
        "unsupported manifest schema_version " + std::string(shown) +
        " (reader supports " + std::to_string(kSchemaVersion) + ")");
  }

  BuildManifest m;
  m.dataset_path = JsonStringOr(root.Find("dataset"), "");
  if (m.dataset_path.empty()) {
    return Status::InvalidArgument("manifest lacks dataset path");
  }
  if (!ParseHex(root.Find("fingerprint"), &m.fingerprint)) {
    return Status::InvalidArgument("manifest lacks a valid fingerprint");
  }
  if (!ParseHex(root.Find("params_hash"), &m.params_hash)) {
    return Status::InvalidArgument("manifest lacks a valid params_hash");
  }
  if (!ParseCount(root.Find("num_points"), &m.num_points) ||
      !ParseCount(root.Find("num_dims"), &m.num_dims) ||
      m.num_points == 0 || m.num_dims == 0) {
    return Status::InvalidArgument(
        "manifest lacks num_points / num_dims");
  }

  const JsonValue* shards = root.Find("shards");
  if (shards == nullptr || shards->kind != JsonValue::Kind::kArray ||
      shards->array.empty()) {
    return Status::InvalidArgument("manifest lacks a shard plan");
  }
  for (const JsonValue& element : shards->array) {
    if (element.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("manifest shard entry is not an object");
    }
    ShardPlan shard;
    if (!ParseCount(element.Find("begin"), &shard.begin) ||
        !ParseCount(element.Find("end"), &shard.end)) {
      return Status::InvalidArgument(
          "manifest shard " + std::to_string(m.shards.size()) +
          " lacks a valid begin / end");
    }
    shard.done = JsonBoolOr(element.Find("done"), false);
    m.shards.push_back(shard);
  }
  // The partition must be an ordered contiguous cover of [0, num_points):
  // the layout-preserving left-to-right fold only reproduces the serial
  // tree under exactly that shape, so anything else is rejected here —
  // the merger must not even start.
  uint64_t expect = 0;
  for (size_t i = 0; i < m.shards.size(); ++i) {
    if (m.shards[i].begin != expect || m.shards[i].end <= m.shards[i].begin) {
      return Status::InvalidArgument(
          "manifest shard " + std::to_string(i) + " range [" +
          std::to_string(m.shards[i].begin) + ", " +
          std::to_string(m.shards[i].end) +
          ") breaks the ordered contiguous cover at point " +
          std::to_string(expect));
    }
    expect = m.shards[i].end;
  }
  if (expect != m.num_points) {
    return Status::InvalidArgument(
        "manifest shard plan covers " + std::to_string(expect) +
        " points, dataset has " + std::to_string(m.num_points));
  }
  return m;
}

Result<uint64_t> FingerprintDataset(const std::string& path) {
  Result<UniqueFd> fd = OpenForRead(path);
  MRCC_RETURN_IF_ERROR(fd.status());
  Result<uint64_t> size = FileSize(fd->get(), path);
  MRCC_RETURN_IF_ERROR(size.status());
  const size_t prefix =
      static_cast<size_t>(std::min<uint64_t>(*size, 64 * 1024));
  std::string head(prefix, '\0');
  if (prefix > 0) {
    MRCC_RETURN_IF_ERROR(
        ReadExactAt(fd->get(), head.data(), prefix, 0, path));
  }
  uint64_t h = Fnv1a(&*size, sizeof(*size));
  return Fnv1a(head.data(), head.size(), h);
}

uint64_t HashParams(const MrCCParams& params) {
  // Only result-affecting knobs, hashed field by field (never the raw
  // struct: padding bytes are indeterminate).
  uint64_t h = Fnv1a(&params.alpha, sizeof(params.alpha));
  h = Fnv1a(&params.num_resolutions, sizeof(params.num_resolutions), h);
  const uint8_t full_mask = params.full_mask ? 1 : 0;
  h = Fnv1a(&full_mask, sizeof(full_mask), h);
  const int policy = static_cast<int>(params.bad_point_policy);
  h = Fnv1a(&policy, sizeof(policy), h);
  h = Fnv1a(&params.window.points, sizeof(params.window.points), h);
  h = Fnv1a(&params.window.generations, sizeof(params.window.generations), h);
  return h;
}

std::vector<ShardPlan> PlanPartitions(uint64_t num_points, int num_shards) {
  std::vector<ShardPlan> plan;
  if (num_points == 0) return plan;
  const uint64_t shards = std::min<uint64_t>(
      num_points, static_cast<uint64_t>(std::max(1, num_shards)));
  const uint64_t base = num_points / shards;
  const uint64_t extra = num_points % shards;
  uint64_t begin = 0;
  for (uint64_t s = 0; s < shards; ++s) {
    ShardPlan shard;
    shard.begin = begin;
    shard.end = begin + base + (s < extra ? 1 : 0);
    begin = shard.end;
    plan.push_back(shard);
  }
  return plan;
}

Status SaveManifest(const BuildManifest& manifest, const std::string& path) {
  MRCC_RETURN_IF_ERROR(fp::Maybe("manifest.write"));
  return WriteFileAtomic(path, manifest.ToJson() + "\n");
}

Result<BuildManifest> LoadManifest(const std::string& path) {
  Result<std::string> json = ReadFileToString(path);
  MRCC_RETURN_IF_ERROR(json.status());
  Result<BuildManifest> manifest = BuildManifest::FromJson(*json);
  if (!manifest.ok()) {
    // FromJson cannot know the path; re-shape its message so the operator
    // sees which file is bad. The code stays InvalidArgument: the bytes
    // were read fine, their content is wrong.
    return Status::FromCode(manifest.status().code(),
                            "invalid manifest " + path + ": " +
                                manifest.status().message());
  }
  return manifest;
}

Status MarkShardDone(const std::string& path, size_t index) {
  // Exclusive advisory lock, held across the read-modify-write so two
  // workers finishing together cannot drop each other's done bits. The
  // lock guards the rewrite; readers need nothing (the rewrite is
  // atomic).
  const std::string lock_path = path + ".lock";
  int raw = -1;
  do {
    raw = ::open(lock_path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  } while (raw < 0 && errno == EINTR);
  if (raw < 0) {
    return Status::IOError("cannot open manifest lock " + lock_path + ": " +
                           std::system_category().message(errno));
  }
  UniqueFd lock(raw);
  int rc = -1;
  do {
    rc = ::flock(lock.get(), LOCK_EX);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::IOError("cannot lock manifest lock " + lock_path + ": " +
                           std::system_category().message(errno));
  }
  Result<BuildManifest> manifest = LoadManifest(path);
  MRCC_RETURN_IF_ERROR(manifest.status());
  if (index >= manifest->shards.size()) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(index) + " out of range (manifest " +
        path + " plans " + std::to_string(manifest->shards.size()) +
        " shards)");
  }
  manifest->shards[index].done = true;
  return SaveManifest(*manifest, path);
  // `lock` closes here, releasing the flock.
}

}  // namespace dist
}  // namespace mrcc
