// Property test: the job-file, terminal-record and run-manifest parsers are
// total over damaged input. Seeded truncations, byte flips, splices and
// integer swaps of valid `jobs_to_json` / `job_to_json`, `terminal_to_json`
// and `manifest_to_json` text must each either parse or throw a
// std::exception — never crash, hang or trip a sanitizer — and every job list
// that parses must either pass detail::validate_spec or be refused with
// std::invalid_argument (the submit-time contract bte_cli --jobs relies on).
//
// Manifests carry a checksum trailer that rejects almost every mutant before
// the body parser runs, so half of the manifest mutants are re-sealed: the
// mutated body gets a fresh, valid trailer and reaches the JSON walker.
//
// FINCH_FUZZ_MUTANTS=N overrides the per-seed mutant count (default 3000).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/manifest.hpp"
#include "svc/job_file.hpp"
#include "svc/attempt_engine.hpp"

using namespace finch;
using namespace finch::svc;

namespace {

int mutant_count() {
  const char* env = std::getenv("FINCH_FUZZ_MUTANTS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 3000;
}

std::vector<JobSpec> sample_jobs() {
  JobSpec a;
  a.id = "alpha";
  a.tenant = "lab-a";
  a.priority = 2;
  a.solver = "cell";
  a.nsteps = 9;
  a.seed = 12345678901ull;
  a.deadline_steps = 5;
  a.max_rollbacks = 0;
  a.ckpt_interval = 2;
  rt::ChaosFault f;
  f.kind = rt::FaultKind::TransferCorruption;
  f.site = "halo";
  f.first_event = 40;
  f.stride = 3;
  f.count = 2;
  a.faults.push_back(f);
  f.kind = rt::FaultKind::KernelLaunchFailure;
  f.site = "sweep";
  f.first_event = 0;
  a.faults.push_back(f);
  JobConfig rung;
  rung.solver = "band";
  rung.nx = 8;
  rung.ny = 6;
  a.fallbacks.push_back(rung);
  JobSpec b;
  b.id = "beta";
  b.solver = "mgpu";
  b.nparts = 2;
  JobSpec c;
  c.id = "gamma";
  c.solver = "band";
  c.nbands = 3;
  c.fallbacks.push_back(JobConfig{});
  return {a, b, c};
}

rt::RunManifest sample_manifest() {
  rt::RunManifest m;
  m.config_hash = 0x9e3779b97f4a7c15ull;
  m.injector_seed = 77;
  m.solver = "cell";
  m.nparts = 4;
  m.last_step = 12;
  m.saves = 7;
  m.checkpoints = {"job/ckpt_7.bin", "job/ckpt_6.bin"};
  m.injector_counters.push_back(rt::FaultCounter{1, "halo", 96, 1});
  m.injector_counters.push_back(rt::FaultCounter{0, "sweep", 12, 0});
  m.injector_events.push_back(rt::FaultEvent{rt::FaultKind::TransferCorruption, "halo", 52});
  m.cancel_reason = "deadline";
  return m;
}

// Integers at the edges of the parsers' int/int64/uint64 conversions.
const char* const kEdgeIntegers[] = {
    "0",  "-0", "-1", "2147483647", "2147483648", "-2147483649", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "18446744073709551615",
    "18446744073709551616", "99999999999999999999999", "-99999999999999999999999"};
// Bytes that steer the JSON walker: structure, signs, digits, quotes, escapes.
const char kSteering[] = "{}[]:,\"-0123456789 \n\t\\aezjobsidsolver";

class Mutator {
 public:
  Mutator(uint32_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string next() {
    std::string s = pick();
    const int ops = 1 + uniform(3);
    for (int k = 0; k < ops; ++k) {
      switch (uniform(5)) {
        case 0:  // truncation
          s.resize(static_cast<size_t>(uniform(static_cast<int>(s.size()) + 1)));
          break;
        case 1:  // byte flip to anything
          if (!s.empty()) s[pos(s)] = static_cast<char>(uniform(256));
          break;
        case 2:  // byte flip to a steering byte
          if (!s.empty()) s[pos(s)] = kSteering[uniform(sizeof(kSteering) - 1)];
          break;
        case 3: {  // splice: a prefix of this text onto a suffix of another
          const std::string other = pick();
          const size_t cut = s.empty() ? 0 : pos(s);
          s = s.substr(0, cut) + other.substr(other.empty() ? 0 : pos(other));
          break;
        }
        case 4:  // swap one digit run for an edge integer
          swap_integer(s);
          break;
      }
    }
    return s;
  }

 private:
  int uniform(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  size_t pos(const std::string& s) { return static_cast<size_t>(uniform(static_cast<int>(s.size()))); }
  std::string pick() { return corpus_[static_cast<size_t>(uniform(static_cast<int>(corpus_.size())))]; }
  void swap_integer(std::string& s) {
    std::vector<size_t> starts;
    for (size_t i = 0; i < s.size(); ++i)
      if (std::isdigit(static_cast<unsigned char>(s[i])) &&
          (i == 0 || !std::isdigit(static_cast<unsigned char>(s[i - 1]))))
        starts.push_back(i);
    if (starts.empty()) return;
    size_t b = starts[static_cast<size_t>(uniform(static_cast<int>(starts.size())))];
    size_t e = b;
    while (e < s.size() && std::isdigit(static_cast<unsigned char>(s[e]))) ++e;
    if (b > 0 && s[b - 1] == '-') --b;
    s = s.substr(0, b) + kEdgeIntegers[uniform(std::size(kEdgeIntegers))] + s.substr(e);
  }

  std::mt19937 rng_;
  std::vector<std::string> corpus_;
};

// Runs `parse` on `text`; a std::exception is a clean refusal, anything else
// escaping is a failure naming the mutant.
template <typename Parse>
bool parses(const std::string& text, Parse parse) {
  try {
    parse(text);
    return true;
  } catch (const std::exception&) {
    return false;
  } catch (...) {
    ADD_FAILURE() << "non-std exception for mutant:\n" << text;
    return false;
  }
}

// A parsed job list must pass submit-time validation or be refused with
// std::invalid_argument.
void expect_validates_or_refuses(const std::vector<JobSpec>& jobs, const std::string& text) {
  for (const JobSpec& spec : jobs) {
    try {
      detail::validate_spec(spec);
    } catch (const std::invalid_argument&) {
    } catch (...) {
      ADD_FAILURE() << "validate_spec threw a non-invalid_argument for mutant:\n" << text;
    }
  }
}

std::string seal_manifest(const std::string& body) {
  static const char* const kHex = "0123456789abcdef";
  const uint64_t h = rt::fnv1a64(std::as_bytes(std::span<const char>(body.data(), body.size())));
  std::string trailer = "#fnv1a:";
  for (int shift = 60; shift >= 0; shift -= 4) trailer.push_back(kHex[(h >> shift) & 0xf]);
  return body + trailer + "\n";
}

}  // namespace

class JobFileFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(JobFileFuzz, JobListMutantsParseOrThrow) {
  const std::vector<JobSpec> jobs = sample_jobs();
  std::vector<std::string> corpus = {jobs_to_json(jobs), jobs_to_json({jobs[1]}),
                                     jobs_to_json({})};
  for (const JobSpec& j : jobs) corpus.push_back(job_to_json(j));
  // The originals parse and validate.
  EXPECT_EQ(jobs_from_json(corpus[0]).size(), jobs.size());
  for (const JobSpec& j : jobs_from_json(corpus[0])) EXPECT_NO_THROW(detail::validate_spec(j));

  Mutator mut(GetParam(), corpus);
  int lists = 0, singles = 0;
  const int n = mutant_count();
  for (int k = 0; k < n; ++k) {
    const std::string text = mut.next();
    std::vector<JobSpec> parsed;
    if (parses(text, [&](const std::string& t) { parsed = jobs_from_json(t); })) {
      ++lists;
      expect_validates_or_refuses(parsed, text);
    }
    JobSpec one;
    if (parses(text, [&](const std::string& t) { one = job_from_json(t); })) {
      ++singles;
      expect_validates_or_refuses({one}, text);
    }
  }
  // Not every mutant is refused: the walk reaches past the first byte.
  EXPECT_GT(lists + singles, 0);
}

TEST_P(JobFileFuzz, TerminalRecordMutantsParseOrThrow) {
  std::vector<std::string> corpus;
  for (TerminalState s : {TerminalState::Completed, TerminalState::Cancelled,
                          TerminalState::Quarantined, TerminalState::Shed})
    corpus.push_back(terminal_to_json(s, std::string("detail for ") + terminal_state_name(s)));
  Mutator mut(GetParam(), corpus);
  int parsed = 0;
  const int n = mutant_count();
  for (int k = 0; k < n; ++k) {
    TerminalState state = TerminalState::Pending;
    std::string detail;
    if (parses(mut.next(), [&](const std::string& t) { terminal_from_json(t, &state, &detail); }))
      ++parsed;
  }
  EXPECT_GT(parsed, 0);
}

TEST_P(JobFileFuzz, ManifestMutantsParseOrThrow) {
  const std::string sealed = rt::manifest_to_json(sample_manifest());
  const std::string body = sealed.substr(0, sealed.rfind("#fnv1a:"));
  ASSERT_EQ(seal_manifest(body), sealed);  // the test's sealer matches the writer
  rt::RunManifest empty;
  empty.solver = "band";
  const std::string empty_text = rt::manifest_to_json(empty);

  Mutator raw(GetParam(), {sealed, empty_text});
  Mutator bodies(GetParam() + 7919u, {body, empty_text.substr(0, empty_text.rfind("#fnv1a:"))});
  const auto parse = [](const std::string& t) { (void)rt::manifest_from_json(t); };
  int resealed_parsed = 0;
  const int n = mutant_count();
  for (int k = 0; k < n; ++k) {
    parses(raw.next(), parse);
    if (parses(seal_manifest(bodies.next()), parse)) ++resealed_parsed;
  }
  // Re-sealed mutants get past the checksum; some still parse.
  EXPECT_GT(resealed_parsed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobFileFuzz, ::testing::Values(1u, 2u, 3u, 5u));
