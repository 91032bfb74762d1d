#pragma once
// Versioned, checksummed snapshot/restore of solver state.
//
// A Snapshot is an ordered list of named double arrays plus the step index it
// was taken at. Serialization is a raw little-endian binary image with a
// magic/version header, a per-field FNV-1a checksum after each field's
// payload, and a trailing FNV-1a checksum over everything before it, so a
// restore either reproduces the saved state bit-for-bit or throws
// CheckpointError — silently restoring from a torn or corrupted image is the
// one failure mode a resilience layer must never have. The per-field
// checksums exist for diagnosis: a truncated or corrupted image names the
// field (index and name) where the damage sits instead of a bare "checksum
// mismatch", which is what separates "the file lost its tail" from "field 2
// ('Io') took a bit flip" in a post-mortem.
//
// CheckpointStore keeps the latest image in memory (fast rollback path) plus
// the previous generation — the fallback the hardened restore path drops to
// when every read of the newest image arrives corrupted (see bte/resilience
// load_checkpoint_guarded) — and can mirror the latest to disk for restart
// across processes. Disk writes go through a .tmp sibling + atomic rename,
// so a crash mid-write never destroys the previous complete image.
// CheckpointPolicy is the periodic-interval schedule the solvers consult.
//
// Topology independence: snapshots carry no rank/device structure. The
// distributed solvers serialize their state in a canonical *global* layout
// ("I" [cells × dirs × bands, dof-major], "T" [cells], "Io"/"beta"
// [cells × bands]), so an image taken at N ranks restores onto any M
// survivors — the N-to-M restart behind elastic shrink recovery — and is even
// interchangeable between the cell-, band- and device-partitioned solvers.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace finch::rt {

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Bitwise FNV-1a over the raw bytes of the doubles: NaN payloads, signed
// zeros and infinities all hash distinctly, so any corruption is visible.
uint64_t fnv1a64(std::span<const std::byte> bytes);
uint64_t checksum_doubles(std::span<const double> data);

// Scans for NaN/Inf; reports the first offending index through `first_bad`.
bool all_finite(std::span<const double> data, size_t* first_bad = nullptr);

struct Snapshot {
  int64_t step = 0;
  std::vector<std::pair<std::string, std::vector<double>>> fields;

  void add(std::string name, std::span<const double> data) {
    fields.emplace_back(std::move(name), std::vector<double>(data.begin(), data.end()));
  }
  const std::vector<double>& field(std::string_view name) const;
  bool has(std::string_view name) const;
};

std::vector<std::byte> serialize(const Snapshot& snap);
// The same image written into `out`, which is resized and keeps its capacity.
// The image is sized once and each payload copied whole; the per-field and
// trailing checksums advance in the same pass over the payload bytes.
void serialize(const Snapshot& snap, std::vector<std::byte>& out);
// Throws CheckpointError on bad magic, unsupported version, truncation, or
// checksum mismatch. Truncation and payload corruption name the field where
// parsing or verification failed ("truncated in field 2 ('Io')"); only
// header/metadata damage falls through to the generic trailing-checksum
// mismatch.
Snapshot deserialize(std::span<const std::byte> bytes);

struct CheckpointPolicy {
  int interval = 16;  // checkpoint every `interval` completed steps; <= 0: never
  bool due(int64_t steps_completed) const {
    return interval > 0 && steps_completed > 0 && steps_completed % interval == 0;
  }
};

// Crash-safe byte-image write: stream into a `.tmp` sibling, flush + fsync,
// atomically rename over the destination, fsync the parent directory. A crash
// at any point leaves either the previous complete file or the new one at
// `path` — never a torn or missing one. Shared by checkpoint images and the
// run manifest (runtime/manifest.hpp).
void write_bytes_atomic(const std::string& path, std::span<const std::byte> image);
// Whole-file read; throws CheckpointError when the file cannot be opened.
std::vector<std::byte> read_bytes_file(const std::string& path);

// Hook into the atomic-write commit protocol, for the crash harness: invoked
// once after the `.tmp` sibling is written+fsynced (rename still pending) and
// once after the rename lands. bench_durability's child processes SIGKILL
// themselves from inside this window to prove a crash mid-checkpoint-write
// can never lose the previous generation. Pass nullptr to clear. Test-only;
// process-global, not thread-safe.
enum class CommitPhase { AfterTmpWrite, AfterRename };
using CommitHook = std::function<void(const std::string& path, CommitPhase phase)>;
void set_checkpoint_commit_hook(CommitHook hook);

class CheckpointStore {
 public:
  // `dir` empty: in-memory only. Otherwise saves are mirrored to disk:
  // `disk_generations` == 1 keeps the legacy single `<dir>/checkpoint.bin`
  // mirror; >= 2 is the durable mode — each save lands in a fresh
  // `<dir>/checkpoint_<seq>.bin` (an already-committed generation is never
  // rewritten, so a crash mid-save cannot touch it) and the oldest file
  // beyond the retention count is deleted.
  explicit CheckpointStore(std::string dir = "", int disk_generations = 1)
      : dir_(std::move(dir)), disk_generations_(disk_generations < 1 ? 1 : disk_generations) {}

  void save(const Snapshot& snap);
  bool has_checkpoint() const { return generations() > 0; }
  int64_t latest_step() const { return latest_step_; }
  int64_t bytes_stored() const { return latest_bytes_; }
  int64_t saves() const { return saves_; }
  // Deserializes (and checksum-validates) the most recent image.
  Snapshot load_latest() const;

  // ---- generations (cross-fault restore fallback) --------------------------
  //
  // save() rotates the previous latest image into a second in-memory
  // generation, so a restore whose every read of the newest image is
  // corrupted can fall back one checkpoint (older step, more replay, still
  // bit-exact). Generation 0 is the newest. In durable mode the on-disk
  // files extend the same numbering, and memory is only a cache: a
  // generation dropped by the resource-relief path is re-read from its file.
  int generations() const;
  // Deserializes generation `g` (0 = newest).
  Snapshot load(int generation) const;
  // Copy of generation `g`'s raw image: callers model in-flight corruption on
  // the copy (FaultInjector::flip_raw_bit) without poisoning the store.
  std::vector<std::byte> image_copy(int generation) const;

  // ---- durable mode (runtime/manifest.hpp, rt::MemoryBudget relief) --------
  //
  // On-disk generation files, newest first — what the run manifest records.
  const std::vector<std::string>& disk_paths() const { return disk_paths_; }
  // Continues the save sequence of a resumed run so new generation files do
  // not collide with ones an old manifest still references.
  void resume_sequence(int64_t saves) { saves_ = saves; }
  // Re-adopts a resumed run's surviving generation files (newest first, as
  // the manifest records them). Each candidate is fully read and
  // deserialized before adoption — a missing or truncated file is skipped,
  // never adopted as a fake fallback. Returns how many were adopted. Without
  // this, the fresh store of a resumed run starts with no disk paths, so its
  // first post-resume manifest would orphan every older generation and a
  // second crash with a damaged newest file would have nothing to fall back
  // to.
  int adopt_disk_paths(const std::vector<std::string>& paths);
  // Graceful-degradation reliefs, in increasing severity; each returns the
  // bytes freed (0 when nothing could be freed safely — a generation is only
  // dropped from memory when a disk file still backs it).
  int64_t drop_previous_generation();
  int64_t spill();

  static void write_file(const std::string& path, const Snapshot& snap);
  static Snapshot read_file(const std::string& path);

 private:
  std::string dir_;
  int disk_generations_ = 1;
  std::vector<std::byte> image_;
  std::vector<std::byte> prev_image_;
  std::vector<std::string> disk_paths_;  // newest first
  int64_t latest_step_ = 0;
  int64_t latest_bytes_ = 0;
  int64_t saves_ = 0;
};

}  // namespace finch::rt
