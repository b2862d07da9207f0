#include "perfbench/workload.h"

#include <algorithm>
#include <array>

#include "src/common/rng.h"
#include "src/common/str_util.h"

namespace perfbench {

using maybms::Rng;
using maybms::StringFormat;

namespace {

// Team database (paper §3): players with three status alternatives each,
// grouped into teams; u is the repaired uncertain relation.
constexpr int kPlayers = 19980;
constexpr int kTeamSize = 60;
constexpr int kTeams = kPlayers / kTeamSize;
constexpr int kInsertBatch = 1000;  // rows per setup INSERT
constexpr std::array<const char*, 3> kStates = {"fit", "tired", "injured"};
constexpr std::array<const char*, 5> kSkills = {"shooting", "passing",
                                                "defense", "rebounding",
                                                "speed"};
// Rows appended by each whatif/dashboard INSERT into the side table.
constexpr size_t kLogBatch = 10;

// Ingest: sensors × slots × alternative readings per (sensor, slot).
constexpr int kSensors = 5000;
constexpr int kSlots = 10;
constexpr int kAlternatives = 4;
constexpr int kSetupBatch = 500;
constexpr int kIngestBatch = 20;     // rows per measured INSERT
constexpr int kIngestSlots = 5;      // slots of one inserted sensor
constexpr int kRangeSensors = 4;     // sensors per conf()/aconf() window

// Requests per client per second of --seconds. Sized so one run lasts
// roughly --seconds on a 4-core machine; the request list never depends
// on how fast the run goes.
constexpr int kWhatifRate = 180;
constexpr int kDashboardRate = 700;
constexpr int kIngestRate = 600;

// Every aconf(ε, δ) statement's guarantee.
constexpr double kEpsilon = 0.1;
constexpr double kDelta = 0.05;

std::string AconfCall() { return StringFormat("aconf(%g, %g)", kEpsilon, kDelta); }

/// `n` requests with exactly round(share × n) of each class, shuffled.
std::vector<Cls> ClassSequence(size_t n, const std::array<double, 4>& share,
                               Rng* rng) {
  std::vector<Cls> seq;
  seq.reserve(n);
  for (size_t c = 0; c < kNumClasses; ++c) {
    const size_t k = static_cast<size_t>(share[c] * static_cast<double>(n) + 0.5);
    seq.insert(seq.end(), k, static_cast<Cls>(c));
  }
  for (size_t i = seq.size(); i > 1; --i) {
    std::swap(seq[i - 1], seq[rng->NextBounded(i)]);
  }
  return seq;
}

int Pick(Rng* rng, int n) { return static_cast<int>(rng->NextBounded(n)); }

void TeamSetup(Rng* rng, Workload* w) {
  std::vector<std::string>& s = w->setup_sql;
  s.push_back("create table status (player int, team int, state text, w double)");
  s.push_back("create table skills (player int, skill text)");
  std::string status, skills;
  for (int p = 0; p < kPlayers; ++p) {
    for (const char* state : kStates) {
      status += StringFormat("%s(%d, %d, '%s', %d)", status.empty() ? "" : ", ",
                             p, p / kTeamSize, state, 1 + Pick(rng, 9));
    }
    const int first = Pick(rng, kSkills.size());
    skills += StringFormat("%s(%d, '%s')", skills.empty() ? "" : ", ", p,
                           kSkills[first]);
    if (Pick(rng, 2) == 0) {
      skills += StringFormat(", (%d, '%s')", p,
                             kSkills[(first + 1 + Pick(rng, 4)) % kSkills.size()]);
    }
    if ((p + 1) % kInsertBatch == 0 || p + 1 == kPlayers) {
      s.push_back("insert into status values " + status);
      s.push_back("insert into skills values " + skills);
      status.clear();
      skills.clear();
    }
  }
  s.push_back("create table u as select * from "
              "(repair key player in status weight by w) r");
  s.push_back("create index u_team on u (team)");
  s.push_back("create table log (client int, seq int, team int, note text)");
  w->loads_file = true;
  w->table = "u";
  w->index_column = "team";
  w->insert_table = "log";
}

Request TeamLookup(Rng* rng) {
  Request r;
  r.cls = Cls::kLookup;
  r.key = Pick(rng, kTeams);
  r.sql = StringFormat("select player, state, w from u where team = %lld",
                       static_cast<long long>(r.key));
  return r;
}

Request LogInsert(int client, int* seq, Rng* rng, const char* note) {
  Request r;
  r.cls = Cls::kInsert;
  r.rows = kLogBatch;
  r.sql = "insert into log values ";
  for (size_t i = 0; i < kLogBatch; ++i) {
    r.sql += StringFormat("%s(%d, %d, %d, '%s')", i == 0 ? "" : ", ", client,
                          (*seq)++, Pick(rng, kTeams), note);
  }
  return r;
}

Request SkillAconf(const std::string& team_pred) {
  Request r;
  r.cls = Cls::kAconf;
  r.epsilon = kEpsilon;
  r.delta = kDelta;
  const std::string from =
      " from u, skills s where " + team_pred +
      " and u.state = 'fit' and u.player = s.player";
  r.sql = "select s.skill, " + AconfCall() + " as p" + from +
          " group by s.skill order by s.skill";
  r.lineage_sql = "select s.skill" + from;
  return r;
}

// whatif: one analyst, every statement a fresh scenario.
void Whatif(Rng* rng, int seconds, unsigned nproc, Workload* w) {
  ClientPlan c;
  c.num_threads = nproc;
  c.prologue.push_back(StringFormat("set num_threads = %u", nproc));
  int seq = 0;
  for (Cls cls : ClassSequence(static_cast<size_t>(kWhatifRate) * seconds,
                               {0.25, 0.25, 0.25, 0.25}, rng)) {
    switch (cls) {
      case Cls::kConf: {
        // Team pair: the chance both teams field a player in each state,
        // with one player of the first team excluded.
        const int t1 = Pick(rng, kTeams);
        const int t2 = (t1 + 1 + Pick(rng, kTeams - 1)) % kTeams;
        const int out = t1 * kTeamSize + Pick(rng, kTeamSize);
        Request r;
        r.cls = cls;
        const std::string from = StringFormat(
            " from u a, u b where a.team = %d and b.team = %d and "
            "a.state = b.state and a.player <> %d",
            t1, t2, out);
        r.sql = "select a.state, conf() as p" + from +
                " group by a.state order by a.state";
        r.lineage_sql = "select a.state" + from;
        c.requests.push_back(std::move(r));
        break;
      }
      case Cls::kAconf: {
        const int t = Pick(rng, kTeams - 2);
        const int out = t * kTeamSize + Pick(rng, 3 * kTeamSize);
        c.requests.push_back(SkillAconf(StringFormat(
            "u.team >= %d and u.team <= %d and u.player <> %d", t, t + 2, out)));
        break;
      }
      case Cls::kLookup:
        c.requests.push_back(TeamLookup(rng));
        break;
      case Cls::kInsert:
        c.requests.push_back(LogInsert(0, &seq, rng, "scenario"));
        break;
    }
  }
  w->clients.push_back(std::move(c));
}

// dashboard: four sessions, each conditioned on its own evidence,
// refreshing a small fixed set of posterior statements.
void Dashboard(Rng* rng, int seconds, Workload* w) {
  constexpr int kClients = 4;
  constexpr int kPanels = 4;  // fixed conf and aconf statements per session
  for (int k = 0; k < kClients; ++k) {
    ClientPlan c;
    c.num_threads = 1;
    c.prologue.push_back("set num_threads = 1");
    const int player = Pick(rng, kPlayers);
    c.prologue.push_back(StringFormat(
        "assert select * from u where player = %d and state <> 'injured'",
        player));
    std::vector<Request> conf, aconf;
    for (int i = 0; i < kPanels; ++i) {
      const int team = i == 0 ? player / kTeamSize : Pick(rng, kTeams);
      Request r;
      r.cls = Cls::kConf;
      const std::string from = StringFormat(" from u where team = %d", team);
      r.sql = "select state, conf() as p" + from + " group by state order by state";
      r.lineage_sql = "select state" + from;
      conf.push_back(std::move(r));
      aconf.push_back(SkillAconf(StringFormat("u.team = %d", team)));
    }
    int seq = 0;
    for (Cls cls : ClassSequence(static_cast<size_t>(kDashboardRate) * seconds,
                                 {0.25, 0.25, 0.25, 0.25}, rng)) {
      switch (cls) {
        case Cls::kConf:
          c.requests.push_back(conf[Pick(rng, kPanels)]);
          break;
        case Cls::kAconf:
          c.requests.push_back(aconf[Pick(rng, kPanels)]);
          break;
        case Cls::kLookup:
          c.requests.push_back(TeamLookup(rng));
          break;
        case Cls::kInsert:
          c.requests.push_back(LogInsert(k, &seq, rng, "view"));
          break;
      }
    }
    w->clients.push_back(std::move(c));
  }
}

// Confidence over one window of sensors. conf() repairs the raw readings
// in the statement itself, so every conf request mints fresh variables;
// aconf() reads the repaired snapshot taken at setup.
Request ReadingsWindow(Cls cls, int lo, int threshold) {
  Request r;
  r.cls = cls;
  const std::string window =
      StringFormat("sensor >= %d and sensor <= %d", lo, lo + kRangeSensors - 1);
  std::string from;
  if (cls == Cls::kConf) {
    from = " from (repair key sensor, slot in (select * from readings where " +
           window + ") weight by w) r where ";
  } else {
    r.epsilon = kEpsilon;
    r.delta = kDelta;
    from = " from snapshot r where r." + window + " and ";
  }
  from += StringFormat("r.val > %d", threshold);
  r.lineage_sql = "select r.sensor" + from;
  r.sql = "select r.sensor, " + (cls == Cls::kConf ? "conf()" : AconfCall()) +
          " as p" + from + " group by r.sensor order by r.sensor";
  return r;
}

// ingest: two sessions appending new sensors while reading old ones.
void Ingest(Rng* rng, int seconds, Workload* w) {
  std::vector<std::string>& s = w->setup_sql;
  s.push_back("create table readings (sensor int, slot int, val double, w double)");
  s.push_back("create index readings_sensor on readings (sensor)");
  std::string batch;
  int in_batch = 0;
  for (int sensor = 0; sensor < kSensors; ++sensor) {
    for (int slot = 0; slot < kSlots; ++slot) {
      for (int a = 0; a < kAlternatives; ++a) {
        batch += StringFormat("%s(%d, %d, %d, %d)", batch.empty() ? "" : ", ",
                              sensor, slot, Pick(rng, 100), 1 + Pick(rng, 9));
        if (++in_batch == kSetupBatch) {
          s.push_back("insert into readings values " + batch);
          batch.clear();
          in_batch = 0;
        }
      }
    }
  }
  if (!batch.empty()) s.push_back("insert into readings values " + batch);
  s.push_back("create table snapshot as select * from "
              "(repair key sensor, slot in readings weight by w) r");
  s.push_back("create index snapshot_sensor on snapshot (sensor)");
  w->table = "readings";
  w->index_column = "sensor";
  w->insert_table = "readings";
  w->insert_base_rows = static_cast<size_t>(kSensors) * kSlots * kAlternatives;
  constexpr int kClients = 2;
  for (int k = 0; k < kClients; ++k) {
    ClientPlan c;
    c.num_threads = 1;
    c.prologue.push_back("set num_threads = 1");
    // New sensors get ids no setup sensor and no other client uses, so
    // every read below sees the same rows whatever the interleaving.
    int next_sensor = 1000000 * (k + 1);
    for (Cls cls : ClassSequence(static_cast<size_t>(kIngestRate) * seconds,
                                 {0.10, 0.10, 0.30, 0.50}, rng)) {
      Request r;
      r.cls = cls;
      switch (cls) {
        case Cls::kConf:
        case Cls::kAconf: {
          const int lo = Pick(rng, kSensors - kRangeSensors + 1);
          r = ReadingsWindow(cls, lo, 40 + Pick(rng, 50));
          break;
        }
        case Cls::kLookup:
          r.key = Pick(rng, kSensors);
          r.sql = StringFormat("select slot, val, w from readings where sensor = %lld",
                               static_cast<long long>(r.key));
          break;
        case Cls::kInsert: {
          const int sensor = next_sensor++;
          r.rows = kIngestBatch;
          r.sql = "insert into readings values ";
          for (int i = 0; i < kIngestBatch; ++i) {
            r.sql += StringFormat("%s(%d, %d, %d, %d)", i == 0 ? "" : ", ",
                                  sensor, i % kIngestSlots, Pick(rng, 100),
                                  1 + Pick(rng, 9));
          }
          break;
        }
      }
      c.requests.push_back(std::move(r));
    }
    w->clients.push_back(std::move(c));
  }
}

}  // namespace

const char* ClassName(Cls cls) {
  switch (cls) {
    case Cls::kConf:
      return "conf";
    case Cls::kAconf:
      return "aconf";
    case Cls::kLookup:
      return "lookup";
    case Cls::kInsert:
      return "insert";
  }
  return "?";
}

size_t Workload::NumRequests() const {
  size_t n = 0;
  for (const ClientPlan& c : clients) n += c.requests.size();
  return n;
}

size_t Workload::ClassCount(Cls cls) const {
  size_t n = 0;
  for (const ClientPlan& c : clients) {
    for (const Request& r : c.requests) n += r.cls == cls ? 1 : 0;
  }
  return n;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"whatif", "dashboard", "ingest"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                  unsigned nproc, Workload* out, std::string* error) {
  Workload w;
  w.name = name;
  // Distinct streams per workload, so equal seeds do not correlate them.
  uint64_t name_hash = 0xcbf29ce484222325ULL;
  for (unsigned char ch : name) name_hash = (name_hash ^ ch) * 0x100000001b3ULL;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + name_hash);
  // whatif and dashboard share one team database per seed.
  Rng team_rng(seed ^ 0x7465616d64617461ULL);
  if (name == "whatif") {
    TeamSetup(&team_rng, &w);
    Whatif(&rng, seconds, nproc, &w);
  } else if (name == "dashboard") {
    TeamSetup(&team_rng, &w);
    Dashboard(&rng, seconds, &w);
  } else if (name == "ingest") {
    Ingest(&rng, seconds, &w);
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  *out = std::move(w);
  return true;
}

uint64_t Fingerprint(const Workload& w) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ULL;
    h = (h ^ 0xff) * 0x100000001b3ULL;
  };
  for (const std::string& s : w.setup_sql) mix(s);
  for (const ClientPlan& c : w.clients) {
    for (const std::string& s : c.prologue) mix(s);
    for (const Request& r : c.requests) {
      mix(r.sql);
      mix(r.lineage_sql);
    }
  }
  return h;
}

}  // namespace perfbench
