// The benchmark's workloads and their seeded inputs.
//
// `servebench gen` turns (workload, seed, seconds) into files in a work
// directory; every later phase (serve, trace, check) reads only those files,
// so the program under test receives generated inputs and nothing else:
// document text, view or policy text, query texts, an arrival schedule, and
// serialized deltas (plus, for durable_mixed, a prepared store directory).

#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "xml/tree.h"
#include "xml/tree_delta.h"

namespace servebench {

namespace xml = smoqe::xml;

struct Workload {
  std::string name;
  int patients = 0;
  double read_rate = 0;   // open-loop reads per second
  double write_rate = 0;  // open-loop durable writes per second (0 = none)
  int closed_requests = 0;  // over all closed-loop rounds of a run
  int warmup_requests = 0;  // tenant_mix: seeded warm-up stream length
  int roles = 0;            // tenant_mix: policy roles
  double zipf_s = 0;        // tenant_mix: role popularity exponent
  int query_pool = 0;       // distinct query texts
  int wal_tail = 0;         // durable_mixed: WAL records recovered at set-up
  int snapshot_every = 0;   // durable_mixed: QueryServiceOptions value
  double replay_seconds = 0;  // traced replay covers this schedule prefix
};

/// The named workload; exits the process on an unknown name.
Workload WorkloadNamed(const std::string& name);

/// One scheduled read. Phases: 'w' warm-up (part of set-up), 'o' open
/// loop (latency percentiles), 'c' closed loop (read_qps_max).
struct ReadOp {
  char phase = 'o';
  int64_t due_us = 0;  // offset from the open-loop start ('o' only)
  int query = 0;
  int role = -1;  // tenant_mix: policy role id; -1 elsewhere
};

struct Inputs {
  Workload workload;
  uint64_t seed = 0;
  double seconds = 0;
  std::string dir;
  std::string doc_xml;
  std::string spec;  // view spec (view_read, durable_mixed) or policy text
  std::vector<std::string> queries;
  std::vector<ReadOp> reads;
  std::vector<int64_t> write_due_us;  // durable_mixed, open loop
  std::vector<std::string> deltas;    // serialized; the WAL tail first
  std::string store0() const { return dir + "/store0"; }
};

/// Writes every input file for (workload, seed, seconds) into `dir`.
void Generate(const Workload& workload, uint64_t seed, double seconds,
              const std::string& dir);

/// Reads back what Generate wrote; exits the process on a missing file.
Inputs Load(const std::string& dir);

/// Seeded clinical writes over a shadow copy of the served document: record
/// a visit on an in-patient, admit a patient (a captured fragment) into a
/// department, or discharge an in-patient. Every delta keeps the document
/// valid against the hospital DTD. The generator applies each delta to its
/// shadow, so delta k admits against version base + k of any tree that is
/// id-for-id the shadow's initial tree.
class ClinicalDeltas {
 public:
  ClinicalDeltas(xml::Tree initial, uint64_t seed, uint64_t base_version);
  xml::TreeDelta Next();
  const xml::Tree& tree() const { return tree_; }

 private:
  xml::Tree tree_;
  std::mt19937_64 rng_;
  uint64_t version_;
  std::vector<xml::NodeId> departments_;
  std::vector<xml::NodeId> inpatients_;  // department-level patients
  std::vector<xml::Fragment> donors_;    // captured patients to admit
};

/// Whole-file helpers (exit on failure).
std::string ReadFileOrDie(const std::string& path);
void WriteFileOrDie(const std::string& path, const std::string& bytes);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
