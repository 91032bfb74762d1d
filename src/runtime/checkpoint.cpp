#include "checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define FINCH_HAVE_FSYNC 1
#endif

namespace finch::rt {

namespace {

constexpr uint64_t kMagic = 0x46434e4b50543031ULL;  // "FCNKPT01"
// v2: a per-field FNV-1a checksum follows each field's payload, so load
// failures name the damaged field instead of a bare image-level mismatch.
constexpr uint32_t kVersion = 2;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t fnv1a64_feed(uint64_t h, const std::byte* p, size_t n) {
  for (size_t i = 0; i < n; ++i) h = (h ^ static_cast<uint64_t>(p[i])) * kFnvPrime;
  return h;
}

// A field payload feeds two FNV-1a chains, the field's own and the whole
// image's; one loop advances both, so their multiply latencies overlap.
void fnv1a64_feed2(uint64_t& field, uint64_t& image, const std::byte* p, size_t n) {
  uint64_t a = field, b = image;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = static_cast<uint64_t>(p[i]);
    a = (a ^ x) * kFnvPrime;
    b = (b ^ x) * kFnvPrime;
  }
  field = a;
  image = b;
}

uint64_t get_u64(std::span<const std::byte> bytes, size_t& off) {
  if (off + 8 > bytes.size()) throw CheckpointError("checkpoint truncated");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes[off + static_cast<size_t>(i)]) << (8 * i);
  off += 8;
  return v;
}

// Writes an image front to back into a buffer already sized for it, feeding
// every byte but the trailing checksum to the whole-image chain.
struct ImageWriter {
  std::byte* p;
  uint64_t image = kFnvOffset;

  void put_u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
    image = fnv1a64_feed(image, p, 8);
    p += 8;
  }
  void put_name(const std::string& name) {
    if (name.empty()) return;
    std::memcpy(p, name.data(), name.size());
    image = fnv1a64_feed(image, p, name.size());
    p += name.size();
  }
  // A field payload followed by its own checksum.
  void put_payload(std::span<const std::byte> raw) {
    uint64_t field = kFnvOffset;
    if (!raw.empty()) {
      std::memcpy(p, raw.data(), raw.size());
      fnv1a64_feed2(field, image, raw.data(), raw.size());
      p += raw.size();
    }
    put_u64(field);
  }
};

}  // namespace

uint64_t fnv1a64(std::span<const std::byte> bytes) {
  return fnv1a64_feed(kFnvOffset, bytes.data(), bytes.size());
}

uint64_t checksum_doubles(std::span<const double> data) {
  return fnv1a64(std::as_bytes(data));
}

bool all_finite(std::span<const double> data, size_t* first_bad) {
  for (size_t i = 0; i < data.size(); ++i)
    if (!std::isfinite(data[i])) {
      if (first_bad != nullptr) *first_bad = i;
      return false;
    }
  return true;
}

const std::vector<double>& Snapshot::field(std::string_view name) const {
  for (const auto& [n, v] : fields)
    if (n == name) return v;
  throw CheckpointError("snapshot has no field named '" + std::string(name) + "'");
}

bool Snapshot::has(std::string_view name) const {
  for (const auto& [n, v] : fields)
    if (n == name) return true;
  return false;
}

std::vector<std::byte> serialize(const Snapshot& snap) {
  std::vector<std::byte> out;
  serialize(snap, out);
  return out;
}

void serialize(const Snapshot& snap, std::vector<std::byte>& out) {
  // Header (magic, version, step, field count) and trailing checksum, plus
  // per field a name length, the name, an element count, the payload and the
  // payload checksum.
  size_t size = 5 * 8;
  for (const auto& [name, data] : snap.fields)
    size += 3 * 8 + name.size() + data.size() * sizeof(double);
  out.resize(size);
  ImageWriter w{out.data()};
  w.put_u64(kMagic);
  w.put_u64(kVersion);
  w.put_u64(static_cast<uint64_t>(snap.step));
  w.put_u64(static_cast<uint64_t>(snap.fields.size()));
  for (const auto& [name, data] : snap.fields) {
    w.put_u64(static_cast<uint64_t>(name.size()));
    w.put_name(name);
    w.put_u64(static_cast<uint64_t>(data.size()));
    w.put_payload(std::as_bytes(std::span<const double>(data)));
  }
  const uint64_t image = w.image;
  w.put_u64(image);
}

Snapshot deserialize(std::span<const std::byte> bytes) {
  if (bytes.size() < 8 * 5) throw CheckpointError("checkpoint truncated (no complete header)");

  size_t off = 0;
  if (get_u64(bytes, off) != kMagic) throw CheckpointError("not a checkpoint image (bad magic)");
  const uint64_t version = get_u64(bytes, off);
  if (version != kVersion)
    throw CheckpointError("unsupported checkpoint version " + std::to_string(version));
  Snapshot snap;
  snap.step = static_cast<int64_t>(get_u64(bytes, off));
  const uint64_t nfields = get_u64(bytes, off);
  snap.fields.reserve(nfields);
  // The whole-image chain trails the walk: bytes before `hashed` are fed, and
  // each payload is fed together with its field chain in one pass.
  uint64_t image = kFnvOffset;
  size_t hashed = 0;
  const auto hash_upto = [&](size_t end) {
    image = fnv1a64_feed(image, bytes.data() + hashed, end - hashed);
    hashed = end;
  };
  // The structural walk runs before the trailing whole-image checksum so a
  // torn or corrupted image names the field where the damage sits — "field 2
  // ('Io')" — instead of a bare mismatch; only header/metadata corruption the
  // walk cannot localize falls through to the trailing check.
  for (uint64_t f = 0; f < nfields; ++f) {
    const auto field_error = [f](const std::string& name, const std::string& what) {
      const std::string label =
          name.empty() ? "field " + std::to_string(f)
                       : "field " + std::to_string(f) + " ('" + name + "')";
      return CheckpointError("checkpoint " + what + " in " + label);
    };
    if (off + 8 > bytes.size()) throw field_error("", "truncated (no name length)");
    const uint64_t name_len = get_u64(bytes, off);
    if (name_len > bytes.size() - off) throw field_error("", "truncated (name unreadable)");
    std::string name(name_len, '\0');
    std::memcpy(name.data(), bytes.data() + off, name_len);
    off += name_len;
    if (off + 8 > bytes.size()) throw field_error(name, "truncated (no element count)");
    const uint64_t count = get_u64(bytes, off);
    // Division avoids the count*8 overflow a hand-crafted header could use to
    // slip past the bound and read out of the buffer.
    if (count > (bytes.size() - off) / sizeof(double))
      throw field_error(name, "truncated (payload exceeds remaining bytes)");
    const size_t payload_len = count * sizeof(double);
    std::vector<double> data(count);
    if (count > 0) std::memcpy(data.data(), bytes.data() + off, payload_len);
    hash_upto(off);
    uint64_t field = kFnvOffset;
    fnv1a64_feed2(field, image, bytes.data() + off, payload_len);
    off += payload_len;
    hashed = off;
    if (off + 8 > bytes.size()) throw field_error(name, "truncated (no field checksum)");
    if (get_u64(bytes, off) != field) throw field_error(name, "checksum mismatch");
    snap.fields.emplace_back(std::move(name), std::move(data));
  }
  if (off + 8 > bytes.size())
    throw CheckpointError("checkpoint truncated after field " + std::to_string(nfields) +
                          " (missing trailing checksum)");
  hash_upto(bytes.size() - 8);
  size_t tail = bytes.size() - 8;
  if (get_u64(bytes, tail) != image)
    throw CheckpointError("checkpoint checksum mismatch (header or metadata corrupted)");
  return snap;
}

namespace {

#ifdef FINCH_HAVE_FSYNC
// Flushes a file's (or directory's) kernel buffers to stable storage. The
// directory fsync is what makes the rename itself durable: without it a power
// loss can roll the directory entry back to the old image even though the new
// file's data reached the disk. Directory fsync failures are best-effort
// (some filesystems refuse directory fds) but never silent: each one bumps
// `ckpt.dir_fsync_soft_fail` so a fleet quietly losing rename durability is
// visible in the metrics dump.
void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) {
    if (!directory) throw CheckpointError("cannot reopen for fsync: " + path);
    MetricsRegistry::global().counter("ckpt.dir_fsync_soft_fail").add(1.0);
    return;
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    if (!directory) throw CheckpointError("fsync failed: " + path);
    MetricsRegistry::global().counter("ckpt.dir_fsync_soft_fail").add(1.0);
  }
}

std::string parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}
#endif

CommitHook g_commit_hook;  // crash-harness window hook; see checkpoint.hpp

}  // namespace

void set_checkpoint_commit_hook(CommitHook hook) { g_commit_hook = std::move(hook); }

void write_bytes_atomic(const std::string& path, std::span<const std::byte> image) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw CheckpointError("cannot open for writing: " + tmp);
    os.write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(image.size()));
    os.flush();
    if (!os) throw CheckpointError("short write to " + tmp);
  }
#ifdef FINCH_HAVE_FSYNC
  fsync_path(tmp, /*directory=*/false);
#endif
  if (g_commit_hook) g_commit_hook(path, CommitPhase::AfterTmpWrite);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot commit checkpoint to " + path);
  }
#ifdef FINCH_HAVE_FSYNC
  fsync_path(parent_dir(path), /*directory=*/true);
#endif
  if (g_commit_hook) g_commit_hook(path, CommitPhase::AfterRename);
}

std::vector<std::byte> read_bytes_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw CheckpointError("cannot open checkpoint: " + path);
  const std::streamoff size = is.tellg();
  if (size < 0) throw CheckpointError("cannot size checkpoint: " + path);
  // Read straight into the bytes. An empty file is a valid (empty) read that
  // the caller's header check rejects; its data() is null, so skip the read.
  std::vector<std::byte> bytes(static_cast<size_t>(size));
  is.seekg(0);
  if (size > 0 && !is.read(reinterpret_cast<char*>(bytes.data()), size))
    throw CheckpointError("cannot read checkpoint: " + path);
  return bytes;
}

void CheckpointStore::save(const Snapshot& snap) {
  // The latest image becomes generation 1, and the new one is written into
  // the buffer the old generation 1 held, reusing its capacity.
  if (!image_.empty()) image_.swap(prev_image_);
  serialize(snap, image_);
  latest_step_ = snap.step;
  latest_bytes_ = static_cast<int64_t>(image_.size());
  saves_ += 1;
  if (dir_.empty()) return;
  if (disk_generations_ <= 1) {
    const std::string path = dir_ + "/checkpoint.bin";
    write_bytes_atomic(path, image_);
    disk_paths_.assign(1, path);
    return;
  }
  // Durable mode: a committed generation file is never rewritten, so a crash
  // inside this write (before or after the rename) cannot damage any prior
  // generation — the property the SIGKILL harness drives through the commit
  // hook above.
  const std::string path = dir_ + "/checkpoint_" + std::to_string(saves_) + ".bin";
  write_bytes_atomic(path, image_);
  disk_paths_.insert(disk_paths_.begin(), path);
  while (static_cast<int>(disk_paths_.size()) > disk_generations_) {
    std::remove(disk_paths_.back().c_str());
    disk_paths_.pop_back();
  }
}

Snapshot CheckpointStore::load_latest() const {
  if (generations() == 0) throw CheckpointError("no checkpoint saved");
  return load(0);
}

Snapshot CheckpointStore::load(int generation) const { return deserialize(image_copy(generation)); }

int CheckpointStore::generations() const {
  const int mem = (image_.empty() ? 0 : 1) + (prev_image_.empty() ? 0 : 1);
  return std::max(mem, static_cast<int>(disk_paths_.size()));
}

std::vector<std::byte> CheckpointStore::image_copy(int generation) const {
  if (generation < 0 || generation >= generations())
    throw CheckpointError("no checkpoint generation " + std::to_string(generation) + " (have " +
                          std::to_string(generations()) + ")");
  if (generation == 0 && !image_.empty()) return image_;
  if (generation == 1 && !prev_image_.empty()) return prev_image_;
  // Spilled / dropped from memory: the disk file still backs the generation.
  return read_bytes_file(disk_paths_[static_cast<size_t>(generation)]);
}

int CheckpointStore::adopt_disk_paths(const std::vector<std::string>& paths) {
  int adopted = 0;
  for (const std::string& path : paths) {
    bool dup = false;
    for (const std::string& have : disk_paths_) dup = dup || have == path;
    if (dup) continue;
    try {
      (void)deserialize(read_bytes_file(path));
    } catch (const std::exception&) {
      continue;  // missing / truncated / corrupt: not a usable fallback
    }
    disk_paths_.push_back(path);
    ++adopted;
  }
  return adopted;
}

int64_t CheckpointStore::drop_previous_generation() {
  // Only safe when an older disk file can still serve generation-1 fallback.
  if (prev_image_.empty() || disk_paths_.size() < 2) return 0;
  const int64_t freed = static_cast<int64_t>(prev_image_.capacity());
  prev_image_.clear();
  prev_image_.shrink_to_fit();
  return freed;
}

int64_t CheckpointStore::spill() {
  // The severe relief: keep only the disk files. The newest generation stays
  // readable through its file; the in-memory gen-1 fallback survives the
  // spill only where a second disk file backs it (durable mode).
  if (disk_paths_.empty()) return 0;
  int64_t freed = 0;
  if (!prev_image_.empty()) {
    freed += static_cast<int64_t>(prev_image_.capacity());
    prev_image_.clear();
    prev_image_.shrink_to_fit();
  }
  if (!image_.empty()) {
    freed += static_cast<int64_t>(image_.capacity());
    image_.clear();
    image_.shrink_to_fit();
  }
  return freed;
}

void CheckpointStore::write_file(const std::string& path, const Snapshot& snap) {
  write_bytes_atomic(path, serialize(snap));
}

Snapshot CheckpointStore::read_file(const std::string& path) {
  return deserialize(read_bytes_file(path));
}

}  // namespace finch::rt
