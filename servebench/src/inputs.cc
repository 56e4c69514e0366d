#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "dtd/dtd_parser.h"
#include "gen/fixtures.h"
#include "gen/hospital_generator.h"
#include "helpers.h"
#include "report.h"
#include "storage/durable_epoch.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace servebench {
namespace {

// Independent sub-streams of one seed (splitmix64 of seed and stream).
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Queries posed on the σ0 view (Fig. 1(b)), one per Section 7 shape:
// plain paths, filters with conjunction/disjunction, '//', Kleene star
// outside, inside and around filters, negation, and text tests.
const std::vector<std::string>& ViewQueries() {
  static const std::vector<std::string> kQueries = {
      "patient/record/diagnosis",
      "patient[record/empty]",
      "//diagnosis",
      "//patient[record/diagnosis/text() = 'lung disease']",
      "patient[*//record/diagnosis/text() = 'heart disease']",
      "(patient/parent)*/patient[(parent/patient)*/record/diagnosis"
      "[text() = 'heart disease']]",
      "patient/(parent/patient)*/record/diagnosis[text() = 'diabetes']",
      "patient[(parent/patient)*/record/empty]",
      "patient/(parent/patient[record/diagnosis])*/record",
      "patient[not(record/empty)]",
      "patient[not(parent)]/record/diagnosis",
      "patient[record/diagnosis/text() = 'asthma' or record/empty]",
      "patient[record/diagnosis/text() = 'heart disease' and "
      "parent/patient/record/empty]",
      "patient/parent/patient/record/diagnosis",
      "//record[diagnosis/text() = 'migraine']",
      "patient[parent/patient[not(record/diagnosis/text() = "
      "'heart disease')]]/record",
  };
  return kQueries;
}

// `pool` distinct texts over hospital labels, posed on a role's view: fixed
// shapes plus seeded instances of parameterized ones.
std::vector<std::string> TenantQueries(uint64_t seed, int pool) {
  static const char* const kCities[] = {"Edinburgh", "Istanbul", "Antwerp",
                                        "Madison"};
  static const char* const kSpecialties[] = {"cardiology", "neurology",
                                             "oncology", "pediatrics"};
  static const char* const kDiseases[] = {
      "heart disease", "lung disease", "brain disease", "diabetes",
      "influenza",     "asthma",       "arthritis",     "migraine"};
  std::vector<std::string> out = {
      "department/patient/pname",
      "//diagnosis",
      "department/patient[visit/treatment/medication]",
      "//doctor/specialty",
      "department/*/visit",
      "department/patient/(parent/patient)*[pname]",
      "department/patient[not(visit/treatment/test)]/pname",
      "//visit[treatment/test]/doctor/dname",
      "department/patient/sibling/patient/pname",
      "department/name",
  };
  std::set<std::string> seen(out.begin(), out.end());
  std::mt19937_64 rng(SubSeed(seed, 7));
  for (int attempt = 0; static_cast<int>(out.size()) < pool; ++attempt) {
    if (attempt > 100000) Fail("query pool larger than its template space");
    const std::string city = kCities[rng() % 4];
    const std::string spec = kSpecialties[rng() % 4];
    const std::string disease = kDiseases[rng() % 8];
    std::string q;
    switch (rng() % 11) {
      case 0:
        q = "department/patient[address/city/text() = '" + city + "']/pname";
        break;
      case 1:
        q = "//patient[visit/doctor/specialty/text() = '" + spec + "']";
        break;
      case 2:
        q = "department/patient/visit/treatment/medication[diagnosis/text() "
            "= '" + disease + "']";
        break;
      case 3:
        q = "department/patient/(parent/patient)*/visit/treatment/"
            "medication/diagnosis[text() = '" + disease + "']";
        break;
      case 4:
        q = "department/patient[(parent/patient)*/visit/treatment/"
            "medication/diagnosis/text() = '" + disease + "']/pname";
        break;
      case 5:
        q = "//visit[doctor/specialty/text() = '" + spec +
            "' and treatment/medication]/date";
        break;
      case 6:
        q = "//patient[address/city/text() = '" + city +
            "' and visit/treatment/test]/pname";
        break;
      case 7:
        q = "department/patient[not(address/city/text() = '" + city +
            "')]/visit/date";
        break;
      case 8:
        q = "//medication[type and diagnosis/text() = '" + disease +
            "']/type";
        break;
      case 9:
        q = "department/patient[visit/doctor/specialty/text() = '" + spec +
            "']/(parent/patient)*/pname";
        break;
      default:
        q = "//doctor[specialty/text() = '" + spec + "']/dname";
        break;
    }
    if (seen.insert(q).second) out.push_back(q);
  }
  out.resize(pool);
  return out;
}

// An annotation policy over the hospital DTD, shaped like bench_authz's
// generator: per role and DTD edge, deny 1/16, conditional allow 2/16,
// explicit allow 1/16, else inherited; every fourth role extends an earlier
// one. No role hides the root.
std::string PolicyText(uint64_t seed, int roles) {
  static const char* const kConds[] = {
      "pname", "not(test)", "type", "diagnosis[text() = 'heart disease']"};
  auto dtd = smoqe::dtd::ParseDtd(smoqe::gen::kHospitalDtdText);
  if (!dtd.ok()) Fail("hospital DTD: " + dtd.status().ToString());
  const smoqe::dtd::Dtd& d = dtd.value();
  std::ostringstream out;
  out << "policy hospital_acl {\n  source " << smoqe::gen::kHospitalDtdText;
  for (int r = 0; r < roles; ++r) {
    std::mt19937_64 rng(SubSeed(seed, 1000 + r));
    out << "  role role" << r;
    if (r > 0 && rng() % 4 == 0) out << " extends role" << rng() % r;
    out << " {\n";
    for (smoqe::dtd::TypeId a = 0; a < d.num_types(); ++a) {
      for (smoqe::dtd::TypeId b : d.ChildTypes(a)) {
        const std::string edge = d.type_name(a) + "." + d.type_name(b);
        switch (rng() % 16) {
          case 0:
            out << "    deny " << edge << " ;\n";
            break;
          case 1:
          case 2:
            out << "    allow " << edge << " when \"" << kConds[rng() % 4]
                << "\" ;\n";
            break;
          case 3:
            out << "    allow " << edge << " ;\n";
            break;
          default:
            break;
        }
      }
    }
    out << "  }\n";
  }
  out << "}\n";
  return out.str();
}

xml::Fragment VisitFragment(std::mt19937_64& rng) {
  static const char* const kDiseases[] = {"lung disease", "brain disease",
                                          "diabetes",     "influenza",
                                          "asthma",       "migraine"};
  xml::Tree t;
  auto text_child = [&t](xml::NodeId parent, const char* label,
                         const std::string& text) {
    t.AddText(t.AddElement(parent, label), text);
  };
  xml::NodeId visit = t.AddRoot("visit");
  text_child(visit, "date", "2007-" + std::to_string(1 + rng() % 12) + "-" +
                                std::to_string(1 + rng() % 28));
  xml::NodeId treatment = t.AddElement(visit, "treatment");
  if (rng() % 10 < 7) {
    xml::NodeId med = t.AddElement(treatment, "medication");
    text_child(med, "type", "med-" + std::to_string(1 + rng() % 50));
    text_child(med, "diagnosis",
               rng() % 10 < 3 ? "heart disease" : kDiseases[rng() % 6]);
  } else {
    xml::NodeId test = t.AddElement(treatment, "test");
    text_child(test, "type", "test-" + std::to_string(1 + rng() % 50));
  }
  xml::NodeId doctor = t.AddElement(visit, "doctor");
  text_child(doctor, "dname", "dr-" + std::to_string(1 + rng() % 500));
  static const char* const kSpecialties[] = {"cardiology", "neurology",
                                             "oncology", "pediatrics"};
  text_child(doctor, "specialty", kSpecialties[rng() % 4]);
  return xml::Fragment::Capture(t, visit);
}

std::vector<xml::NodeId> ElementChildren(const xml::Tree& t, xml::NodeId n,
                                         const char* label) {
  std::vector<xml::NodeId> out;
  for (xml::NodeId c = t.first_child(n); c != xml::kNullNode;
       c = t.next_sibling(c)) {
    if (t.is_element(c) && t.label_name(c) == label) out.push_back(c);
  }
  return out;
}

}  // namespace

Workload WorkloadNamed(const std::string& name) {
  Workload w;
  w.name = name;
  w.query_pool = static_cast<int>(ViewQueries().size());
  if (name == "view_read") {
    w.patients = 4000;
    w.read_rate = 80;
    w.closed_requests = 2700;
    w.replay_seconds = 4;
  } else if (name == "tenant_mix") {
    w.patients = 300;
    w.read_rate = 300;
    w.closed_requests = 4500;
    w.warmup_requests = 200;
    w.roles = 1000;
    w.zipf_s = 1.0;
    w.query_pool = 64;
    w.replay_seconds = 8;
  } else if (name == "durable_mixed") {
    w.patients = 1000;
    w.read_rate = 60;
    w.write_rate = 40;
    w.closed_requests = 3600;
    w.wal_tail = 40;
    w.snapshot_every = 64;
    w.replay_seconds = 6;
  } else {
    Fail("unknown workload '" + name + "'");
  }
  return w;
}

void Generate(const Workload& w, uint64_t seed, double seconds,
              const std::string& dir) {
  std::filesystem::create_directories(dir);
  smoqe::gen::HospitalParams params;
  params.patients = w.patients;
  params.seed = SubSeed(seed, 1);
  const std::string doc = xml::WriteXml(smoqe::gen::GenerateHospital(params));
  WriteFileOrDie(dir + "/doc.xml", doc);

  // The tenants (policy, query pool and which roles are popular) are the
  // same for every seed, like view_read's view and queries: a handful of
  // Zipf-popular roles carry most requests, and with tenants drawn per seed
  // the cost of those few roles moved CPU per request by half from one seed
  // to another. The seed varies the document, the arrival times and the
  // role and query each request draws.
  constexpr uint64_t kTenantSeed = 0;
  const bool tenant = w.roles > 0;
  WriteFileOrDie(dir + "/spec.txt", tenant
                                        ? PolicyText(kTenantSeed, w.roles)
                                        : smoqe::gen::kHospitalViewSpecText);
  const std::vector<std::string> queries =
      tenant ? TenantQueries(kTenantSeed, w.query_pool) : ViewQueries();
  std::string qtext;
  for (const std::string& q : queries) qtext += q + "\n";
  WriteFileOrDie(dir + "/queries.txt", qtext);

  // The read schedule: warm-up, open loop (Poisson), closed loop.
  std::mt19937_64 pick(SubSeed(seed, 3));
  std::vector<int> role_of_rank(std::max(w.roles, 1));
  for (size_t i = 0; i < role_of_rank.size(); ++i) role_of_rank[i] = i;
  std::mt19937_64 rank(SubSeed(kTenantSeed, 3));
  std::shuffle(role_of_rank.begin(), role_of_rank.end(), rank);
  const Zipf zipf(std::max(w.roles, 1), w.zipf_s);
  auto draw = [&](char phase, int64_t due) {
    ReadOp op;
    op.phase = phase;
    op.due_us = due;
    op.query = static_cast<int>(pick() % queries.size());
    if (tenant) op.role = role_of_rank[zipf.Sample(pick)];
    return op;
  };
  std::vector<ReadOp> reads;
  if (tenant) {
    for (int i = 0; i < w.warmup_requests; ++i) reads.push_back(draw('w', 0));
  } else {
    for (size_t q = 0; q < queries.size(); ++q) {
      reads.push_back({'w', 0, static_cast<int>(q), -1});
    }
  }
  for (int64_t due : PoissonArrivals(SubSeed(seed, 4), w.read_rate, seconds)) {
    reads.push_back(draw('o', due));
  }
  for (int i = 0; i < w.closed_requests; ++i) reads.push_back(draw('c', 0));
  std::string rtext;
  for (const ReadOp& r : reads) {
    rtext += std::string(1, r.phase) + " " + std::to_string(r.due_us) + " " +
             std::to_string(r.query) + " " + std::to_string(r.role) + "\n";
  }
  WriteFileOrDie(dir + "/reads.txt", rtext);

  std::vector<int64_t> writes;
  if (w.write_rate > 0) {
    writes = PoissonArrivals(SubSeed(seed, 5), w.write_rate, seconds);
  }
  std::string wtext;
  for (int64_t due : writes) wtext += std::to_string(due) + "\n";
  WriteFileOrDie(dir + "/writes.txt", wtext);

  std::string deltas;
  if (w.write_rate > 0) {
    // Deltas chain from the parsed text (ids match every later ParseXml):
    // the first wal_tail go into the prepared store's log, the rest are
    // the timed writes.
    auto parsed = xml::ParseXml(doc);
    if (!parsed.ok()) Fail("doc.xml: " + parsed.status().ToString());
    ClinicalDeltas source(parsed.value(), SubSeed(seed, 6), 0);
    std::vector<xml::TreeDelta> stream;
    for (size_t i = 0; i < w.wal_tail + writes.size(); ++i) {
      stream.push_back(source.Next());
      std::string bytes;
      stream.back().Serialize(&bytes);
      const uint32_t len = static_cast<uint32_t>(bytes.size());
      deltas.append(reinterpret_cast<const char*>(&len), sizeof(len));
      deltas += bytes;
    }
    smoqe::storage::StorageOptions options;
    options.snapshot_every = 0;  // one snapshot, then a pure WAL tail
    auto store = smoqe::storage::DurableEpochStore::Open(
        dir + "/store0", options, parsed.take());
    if (!store.ok()) Fail("prepare store: " + store.status().ToString());
    for (int i = 0; i < w.wal_tail; ++i) {
      smoqe::Status s = store.value()->Apply(stream[i]);
      if (!s.ok()) Fail("prepare WAL tail: " + s.ToString());
    }
  }
  WriteFileOrDie(dir + "/deltas.bin", deltas);

  WriteFileOrDie(dir + "/params.txt", w.name + " " + std::to_string(seed) +
                                          " " + std::to_string(seconds) +
                                          "\n");
}

Inputs Load(const std::string& dir) {
  Inputs in;
  in.dir = dir;
  {
    std::istringstream params(ReadFileOrDie(dir + "/params.txt"));
    std::string name;
    params >> name >> in.seed >> in.seconds;
    in.workload = WorkloadNamed(name);
  }
  in.doc_xml = ReadFileOrDie(dir + "/doc.xml");
  in.spec = ReadFileOrDie(dir + "/spec.txt");
  {
    std::istringstream qs(ReadFileOrDie(dir + "/queries.txt"));
    for (std::string line; std::getline(qs, line);) {
      if (!line.empty()) in.queries.push_back(line);
    }
  }
  {
    std::istringstream rs(ReadFileOrDie(dir + "/reads.txt"));
    ReadOp op;
    while (rs >> op.phase >> op.due_us >> op.query >> op.role) {
      in.reads.push_back(op);
    }
  }
  {
    std::istringstream ws(ReadFileOrDie(dir + "/writes.txt"));
    for (int64_t due; ws >> due;) in.write_due_us.push_back(due);
  }
  const std::string bytes = ReadFileOrDie(dir + "/deltas.bin");
  for (size_t pos = 0; pos + sizeof(uint32_t) <= bytes.size();) {
    uint32_t len = 0;
    std::copy_n(bytes.data() + pos, sizeof(len), reinterpret_cast<char*>(&len));
    pos += sizeof(len);
    if (len > bytes.size() - pos) Fail("deltas.bin: truncated record");
    in.deltas.push_back(bytes.substr(pos, len));
    pos += len;
  }
  return in;
}

ClinicalDeltas::ClinicalDeltas(xml::Tree initial, uint64_t seed,
                               uint64_t base_version)
    : tree_(std::move(initial)), rng_(seed), version_(base_version) {
  departments_ = ElementChildren(tree_, tree_.root(), "department");
  for (xml::NodeId d : departments_) {
    for (xml::NodeId p : ElementChildren(tree_, d, "patient")) {
      inpatients_.push_back(p);
    }
  }
  if (departments_.empty() || inpatients_.empty()) {
    Fail("clinical deltas need a hospital with in-patients");
  }
  for (int i = 0; i < 16; ++i) {
    donors_.push_back(xml::Fragment::Capture(
        tree_, inpatients_[rng_() % inpatients_.size()]));
  }
}

xml::TreeDelta ClinicalDeltas::Next() {
  xml::TreeDelta delta(version_);
  const uint64_t roll = rng_() % 4;
  xml::NodeId admitted = xml::kNullNode;
  if (roll == 0 || inpatients_.size() < 2) {
    // Admit: a captured patient joins a department (patient* tail).
    admitted = tree_.size();  // Instantiate allocates the root first
    delta.AddInsert(departments_[rng_() % departments_.size()], 0,
                    donors_[rng_() % donors_.size()]);
  } else if (roll == 1) {
    // Discharge: an in-patient leaves.
    const size_t k = rng_() % inpatients_.size();
    delta.AddDelete(inpatients_[k]);
    inpatients_[k] = inpatients_.back();
    inpatients_.pop_back();
  } else {
    // Record a visit: patient -> pname, address, visit*, parent*, sibling*,
    // so the new visit goes right after the last pname/address/visit.
    const xml::NodeId patient = inpatients_[rng_() % inpatients_.size()];
    int32_t slot = 1;
    int32_t index = 1;
    for (xml::NodeId c = tree_.first_child(patient); c != xml::kNullNode;
         c = tree_.next_sibling(c), ++index) {
      const std::string& label = tree_.label_name(c);
      if (label == "pname" || label == "address" || label == "visit") {
        slot = index + 1;
      }
    }
    delta.AddInsert(patient, slot, VisitFragment(rng_));
  }
  smoqe::Status s = delta.ApplyTo(&tree_);
  if (!s.ok()) Fail("clinical delta: " + s.ToString());
  if (admitted != xml::kNullNode) {
    if (tree_.label_name(admitted) != "patient") Fail("admit id drifted");
    inpatients_.push_back(admitted);
  }
  ++version_;
  return delta;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileOrDie(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out) Fail("cannot write " + path);
}

}  // namespace servebench
