#include "src/storage/persist.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/common/str_util.h"
#include "src/cond/constraint_store.h"
#include "src/conf/exact.h"
#include "src/index/index_manager.h"
#include "src/storage/page.h"

namespace maybms {

namespace {

constexpr const char* kMagic = "MAYBMS DUMP v1";

/// Binary paged format magic — the first 8 bytes of page 0 (= of the
/// file), distinct from the text magic's "MAYBMS D" prefix so one sniff
/// of 8 bytes routes LoadDatabaseFromFile.
constexpr char kBinaryMagic[8] = {'M', 'A', 'Y', 'B', 'M', 'S', 'P', '1'};
constexpr uint32_t kBinaryVersion = 1;

/// Frames in the save/load BufferPool. Deliberately small so that saving
/// or loading any database beyond ~0.5 MiB exercises eviction and
/// writeback — the tests that assert bufpool traffic rely on this.
constexpr size_t kPersistPoolFrames = 64;

// Field-level escaping for tab-separated records.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      default:
        out.push_back(s[i]);
    }
  }
  return out;
}

std::string SerializeValue(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return "\\N";
    case TypeId::kBool:
      return v.AsBool() ? "true" : "false";
    case TypeId::kInt:
      return std::to_string(v.AsInt());
    case TypeId::kDouble:
      return StringFormat("%.17g", v.AsDouble());
    case TypeId::kString:
      return Escape(v.AsString());
  }
  return "\\N";
}

Result<Value> DeserializeValue(const std::string& field, TypeId type) {
  if (field == "\\N") return Value::Null();
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(field == "true");
    case TypeId::kInt:
      return Value::Int(std::strtoll(field.c_str(), nullptr, 10));
    case TypeId::kDouble:
      return Value::Double(std::strtod(field.c_str(), nullptr));
    case TypeId::kString:
      return Value::String(Unescape(field));
    default:
      return Status::ParseError("dump contains a value for an untyped column");
  }
}

// --------------------------------------------------------------------------
// Binary paged format.
//
// File layout (all little-endian, 8 KiB pages via FilePageStore):
//   page 0       header: magic[8] "MAYBMSP1", u32 version, u32 first
//                metadata page, u64 metadata bytes — written LAST, after
//                the metadata location is known.
//   data pages   per table, slotted pages of row records in row order.
//                A record is u8 marker 0 + row payload inline, or marker 1
//                + (u32 first overflow page, u32 overflow pages, u64
//                payload bytes) for rows larger than Page::kMaxRecord;
//                overflow chains are raw consecutive pages.
//   meta pages   one raw byte stream spanning consecutive pages: chunk
//                layout, world table, per-table schema + nrows + explicit
//                data-page id list (overflow pages interleave, so the
//                slotted sequence is spelled out), evidence, index defs.
//
// Row payload: per column a tagged value (tag u8; bool u8 / int i64 /
// double f64 / string u32 len + bytes), then u32 atom count + (u32 var,
// u32 asg) pairs for the condition.
// --------------------------------------------------------------------------

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  const std::string& buf() const { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked reader over one record / the metadata stream.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  Result<uint8_t> U8() {
    uint8_t v;
    MAYBMS_RETURN_NOT_OK(Raw(&v, 1));
    return v;
  }
  Result<uint32_t> U32() {
    uint32_t v;
    MAYBMS_RETURN_NOT_OK(Raw(&v, 4));
    return v;
  }
  Result<uint64_t> U64() {
    uint64_t v;
    MAYBMS_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<int64_t> I64() {
    int64_t v;
    MAYBMS_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<double> F64() {
    double v;
    MAYBMS_RETURN_NOT_OK(Raw(&v, 8));
    return v;
  }
  Result<std::string> Str() {
    MAYBMS_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > size_ - pos_) {
      return Status::ParseError("binary database: truncated string");
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  Status Raw(void* p, size_t n) {
    if (n > size_ - pos_) {
      return Status::ParseError("binary database: truncated stream");
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;

uint8_t TypeTag(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return kTagNull;
    case TypeId::kBool:
      return kTagBool;
    case TypeId::kInt:
      return kTagInt;
    case TypeId::kDouble:
      return kTagDouble;
    case TypeId::kString:
      return kTagString;
  }
  return kTagNull;
}

Result<TypeId> TagType(uint8_t tag) {
  switch (tag) {
    case kTagNull:
      return TypeId::kNull;
    case kTagBool:
      return TypeId::kBool;
    case kTagInt:
      return TypeId::kInt;
    case kTagDouble:
      return TypeId::kDouble;
    case kTagString:
      return TypeId::kString;
  }
  return Status::ParseError("binary database: unknown type tag");
}

void EncodeValue(const Value& v, ByteWriter* w) {
  switch (v.type()) {
    case TypeId::kNull:
      w->U8(kTagNull);
      return;
    case TypeId::kBool:
      w->U8(kTagBool);
      w->U8(v.AsBool() ? 1 : 0);
      return;
    case TypeId::kInt:
      w->U8(kTagInt);
      w->I64(v.AsInt());
      return;
    case TypeId::kDouble:
      w->U8(kTagDouble);
      w->F64(v.AsDouble());
      return;
    case TypeId::kString:
      w->U8(kTagString);
      w->Str(v.AsString());
      return;
  }
  w->U8(kTagNull);
}

Result<Value> DecodeValue(ByteReader* r) {
  MAYBMS_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagBool: {
      MAYBMS_ASSIGN_OR_RETURN(uint8_t b, r->U8());
      return Value::Bool(b != 0);
    }
    case kTagInt: {
      MAYBMS_ASSIGN_OR_RETURN(int64_t v, r->I64());
      return Value::Int(v);
    }
    case kTagDouble: {
      MAYBMS_ASSIGN_OR_RETURN(double v, r->F64());
      return Value::Double(v);
    }
    case kTagString: {
      MAYBMS_ASSIGN_OR_RETURN(std::string s, r->Str());
      return Value::String(std::move(s));
    }
  }
  return Status::ParseError("binary database: unknown value tag");
}

std::string EncodeRow(const Row& row) {
  ByteWriter w;
  for (const Value& v : row.values) EncodeValue(v, &w);
  const auto& atoms = row.condition.atoms();
  w.U32(static_cast<uint32_t>(atoms.size()));
  for (const Atom& a : atoms) {
    w.U32(a.var);
    w.U32(a.asg);
  }
  return w.buf();
}

Result<Row> DecodeRow(ByteReader* r, const Schema& schema,
                      const WorldTable& world) {
  Row row;
  row.values.reserve(schema.NumColumns());
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    MAYBMS_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    row.values.push_back(std::move(v));
  }
  MAYBMS_ASSIGN_OR_RETURN(uint32_t natoms, r->U32());
  for (uint32_t i = 0; i < natoms; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(uint32_t var, r->U32());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t asg, r->U32());
    if (var >= world.NumVariables() || asg >= world.DomainSize(var)) {
      return Status::ParseError(
          "binary database: condition atom references unknown variable");
    }
    if (!row.condition.AddAtom(Atom{var, asg})) {
      return Status::ParseError("binary database: inconsistent condition");
    }
  }
  return row;
}

/// Writes `bytes` raw across freshly allocated pages. Allocation here is
/// single-threaded and sequential, so the chain is consecutive page ids
/// starting at the returned first id (an empty stream still takes one
/// page, keeping "first id" meaningful).
Result<PageId> WriteRawChain(BufferPool* pool, const std::string& bytes,
                             uint32_t* num_pages) {
  PageId first = kInvalidPageId;
  size_t off = 0;
  uint32_t n = 0;
  do {
    MAYBMS_ASSIGN_OR_RETURN(PageRef ref, pool->New());
    if (first == kInvalidPageId) first = ref.id();
    const size_t chunk = std::min(kPageSize, bytes.size() - off);
    std::memcpy(ref.page()->raw(), bytes.data() + off, chunk);
    ref.MarkDirty();
    off += chunk;
    ++n;
  } while (off < bytes.size());
  *num_pages = n;
  return first;
}

Status ReadRawChain(BufferPool* pool, PageId first, uint64_t nbytes,
                    std::string* out) {
  out->clear();
  out->reserve(static_cast<size_t>(nbytes));
  PageId id = first;
  uint64_t remaining = nbytes;
  while (remaining > 0) {
    if (id >= pool->store()->num_pages()) {
      return Status::ParseError("binary database: truncated page chain");
    }
    MAYBMS_ASSIGN_OR_RETURN(PageRef ref, pool->Fetch(id));
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(kPageSize, remaining));
    out->append(reinterpret_cast<const char*>(ref.page()->raw()), chunk);
    remaining -= chunk;
    ++id;
  }
  return Status::OK();
}

}  // namespace

std::string DumpDatabase(const Catalog& catalog, const ConstraintStore* evidence) {
  std::string out = kMagic;
  out += "\n";
  // Snapshot chunk layout: a tuning knob, but one that changes which
  // chunks the incremental columnar rebuild can reuse — restoring it keeps
  // a reloaded database's snapshot behavior identical to the dumped one.
  // Older dumps lack the line; restore keeps the catalog default then.
  out += StringFormat("LAYOUT snapshot_chunk_rows %zu\n",
                      catalog.snapshot_chunk_rows());

  // World table: one line per variable: label, then the distribution.
  const WorldTable& wt = catalog.world_table();
  out += StringFormat("WORLDTABLE %zu\n", wt.NumVariables());
  for (VarId v = 0; v < wt.NumVariables(); ++v) {
    out += StringFormat("V\t%s\t%zu", Escape(wt.Label(v)).c_str(), wt.DomainSize(v));
    for (AsgId a = 0; a < wt.DomainSize(v); ++a) {
      out += StringFormat("\t%.17g", wt.AtomProb(Atom{v, a}));
    }
    out += "\n";
  }

  for (const std::string& name : catalog.TableNames()) {
    TablePtr table = *catalog.GetTable(name);
    out += StringFormat("TABLE\t%s\t%d\t%zu\t%zu\n", Escape(table->name()).c_str(),
                        table->uncertain() ? 1 : 0, table->schema().NumColumns(),
                        table->NumRows());
    for (const Column& col : table->schema().columns()) {
      out += StringFormat("C\t%s\t%s\n", Escape(col.name).c_str(),
                          std::string(TypeIdToString(col.type)).c_str());
    }
    for (const Row& row : table->rows()) {
      out += "R";
      for (const Value& v : row.values) {
        out += "\t";
        out += SerializeValue(v);
      }
      // Condition column: "var:asg" pairs after a '|' marker.
      out += "\t|";
      for (const Atom& a : row.condition.atoms()) {
        out += StringFormat("\t%u:%u", a.var, a.asg);
      }
      out += "\n";
    }
  }
  // Asserted evidence (conditioning subsystem): one clause per line, same
  // atom encoding as row conditions. Absent when no evidence is active
  // (dumps from older versions restore fine either way).
  if (evidence != nullptr && evidence->active()) {
    const ConstraintStore& cs = *evidence;
    out += StringFormat("EVIDENCE %zu\n", cs.NumClauses());
    for (const Condition& clause : cs.clauses()) {
      out += "E";
      for (const Atom& a : clause.atoms()) {
        out += StringFormat("\t%u:%u", a.var, a.asg);
      }
      out += "\n";
    }
  }
  out += "END\n";
  return out;
}

Status SaveDatabaseToFile(const Catalog& catalog, const std::string& path,
                          const ConstraintStore* evidence) {
  return SaveDatabaseBinary(catalog, path, evidence);
}

Status SaveDatabaseBinary(const Catalog& catalog, const std::string& path,
                          const ConstraintStore* evidence) {
  MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<FilePageStore> store,
                          FilePageStore::Open(path, /*truncate=*/true));
  BufferPool pool(store.get(), kPersistPoolFrames);
  // Reserve page 0 for the header; its bytes are filled in LAST, once the
  // metadata location is known. Everything else starts at page 1.
  {
    MAYBMS_ASSIGN_OR_RETURN(PageRef header, pool.New());
    header.MarkDirty();
  }

  ByteWriter meta;
  meta.U64(catalog.snapshot_chunk_rows());
  const WorldTable& wt = catalog.world_table();
  meta.U64(wt.NumVariables());
  for (VarId v = 0; v < wt.NumVariables(); ++v) {
    meta.Str(wt.Label(v));
    meta.U32(static_cast<uint32_t>(wt.DomainSize(v)));
    for (AsgId a = 0; a < wt.DomainSize(v); ++a) {
      meta.F64(wt.AtomProb(Atom{v, a}));
    }
  }

  const std::vector<std::string> names = catalog.TableNames();
  meta.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    TablePtr table = *catalog.GetTable(name);
    meta.Str(table->name());
    meta.U8(table->uncertain() ? 1 : 0);
    meta.U32(static_cast<uint32_t>(table->schema().NumColumns()));
    for (const Column& col : table->schema().columns()) {
      meta.Str(col.name);
      meta.U8(TypeTag(col.type));
    }
    meta.U64(table->NumRows());
    std::vector<PageId> data_pages;
    PageRef cur;
    for (const Row& row : table->rows()) {
      const std::string payload = EncodeRow(row);
      std::string record;
      if (payload.size() + 1 <= Page::kMaxRecord) {
        record.reserve(payload.size() + 1);
        record.push_back(static_cast<char>(0));
        record += payload;
      } else {
        uint32_t ovf_pages = 0;
        MAYBMS_ASSIGN_OR_RETURN(PageId ovf_first,
                                WriteRawChain(&pool, payload, &ovf_pages));
        ByteWriter w;
        w.U8(1);
        w.U32(ovf_first);
        w.U32(ovf_pages);
        w.U64(payload.size());
        record = w.buf();
      }
      if (!cur || !cur.page()->Fits(record.size())) {
        MAYBMS_ASSIGN_OR_RETURN(cur, pool.New());
        cur.page()->Init();
        cur.MarkDirty();
        data_pages.push_back(cur.id());
      }
      if (!cur.page()->AppendRecord(record)) {
        return Status::Internal(
            "binary database: record does not fit a fresh page");
      }
      cur.MarkDirty();
    }
    cur.Release();
    meta.U32(static_cast<uint32_t>(data_pages.size()));
    for (PageId id : data_pages) meta.U32(id);
  }

  if (evidence != nullptr && evidence->active()) {
    meta.U8(1);
    meta.U64(evidence->NumClauses());
    for (const Condition& clause : evidence->clauses()) {
      meta.U32(static_cast<uint32_t>(clause.atoms().size()));
      for (const Atom& a : clause.atoms()) {
        meta.U32(a.var);
        meta.U32(a.asg);
      }
    }
  } else {
    meta.U8(0);
  }

  const std::vector<IndexDef> defs = catalog.index_manager().ListDefs();
  meta.U32(static_cast<uint32_t>(defs.size()));
  for (const IndexDef& def : defs) {
    meta.Str(def.name);
    meta.Str(def.table);
    meta.Str(def.column);
  }

  uint32_t meta_pages = 0;
  MAYBMS_ASSIGN_OR_RETURN(PageId meta_first,
                          WriteRawChain(&pool, meta.buf(), &meta_pages));
  {
    MAYBMS_ASSIGN_OR_RETURN(PageRef header, pool.Fetch(0));
    uint8_t* p = header.page()->raw();
    std::memcpy(p, kBinaryMagic, sizeof(kBinaryMagic));
    const uint32_t version = kBinaryVersion;
    std::memcpy(p + 8, &version, 4);
    std::memcpy(p + 12, &meta_first, 4);
    const uint64_t meta_bytes = meta.buf().size();
    std::memcpy(p + 16, &meta_bytes, 8);
    header.MarkDirty();
  }
  MAYBMS_RETURN_NOT_OK(pool.FlushAll());
  return store->Sync();
}

Status LoadDatabaseBinary(const std::string& path, Catalog* catalog,
                          ConstraintStore* evidence) {
  if (!catalog->TableNames().empty() ||
      catalog->world_table().NumVariables() != 0) {
    return Status::InvalidArgument(
        "LoadDatabaseBinary requires a fresh catalog (variable ids are "
        "dense)");
  }
  MAYBMS_ASSIGN_OR_RETURN(std::unique_ptr<FilePageStore> store,
                          FilePageStore::Open(path, /*truncate=*/false));
  if (store->num_pages() == 0) {
    return Status::ParseError("binary database: empty file");
  }
  BufferPool pool(store.get(), kPersistPoolFrames);

  PageId meta_first = kInvalidPageId;
  uint64_t meta_bytes = 0;
  {
    MAYBMS_ASSIGN_OR_RETURN(PageRef header, pool.Fetch(0));
    const uint8_t* p = header.page()->raw();
    if (std::memcmp(p, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
      return Status::ParseError("not a binary MayBMS database (bad magic)");
    }
    uint32_t version = 0;
    std::memcpy(&version, p + 8, 4);
    if (version != kBinaryVersion) {
      return Status::ParseError(StringFormat(
          "binary database: unsupported format version %u", version));
    }
    std::memcpy(&meta_first, p + 12, 4);
    std::memcpy(&meta_bytes, p + 16, 8);
  }
  std::string meta_buf;
  MAYBMS_RETURN_NOT_OK(ReadRawChain(&pool, meta_first, meta_bytes, &meta_buf));
  ByteReader meta(meta_buf);

  MAYBMS_ASSIGN_OR_RETURN(uint64_t chunk_rows, meta.U64());
  if (chunk_rows == 0) {
    return Status::ParseError("binary database: snapshot_chunk_rows is 0");
  }
  catalog->SetSnapshotChunkRows(static_cast<size_t>(chunk_rows));

  MAYBMS_ASSIGN_OR_RETURN(uint64_t num_vars, meta.U64());
  for (uint64_t i = 0; i < num_vars; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(std::string label, meta.Str());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t domain, meta.U32());
    std::vector<double> probs;
    probs.reserve(domain);
    for (uint32_t a = 0; a < domain; ++a) {
      MAYBMS_ASSIGN_OR_RETURN(double prob, meta.F64());
      probs.push_back(prob);
    }
    MAYBMS_RETURN_NOT_OK(
        catalog->world_table().NewVariable(std::move(probs), label).status());
  }

  MAYBMS_ASSIGN_OR_RETURN(uint32_t num_tables, meta.U32());
  for (uint32_t t = 0; t < num_tables; ++t) {
    MAYBMS_ASSIGN_OR_RETURN(std::string name, meta.Str());
    MAYBMS_ASSIGN_OR_RETURN(uint8_t uncertain, meta.U8());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t num_cols, meta.U32());
    Schema schema;
    for (uint32_t c = 0; c < num_cols; ++c) {
      MAYBMS_ASSIGN_OR_RETURN(std::string col_name, meta.Str());
      MAYBMS_ASSIGN_OR_RETURN(uint8_t tag, meta.U8());
      MAYBMS_ASSIGN_OR_RETURN(TypeId type, TagType(tag));
      schema.AddColumn(Column{std::move(col_name), type});
    }
    MAYBMS_ASSIGN_OR_RETURN(uint64_t num_rows, meta.U64());
    MAYBMS_ASSIGN_OR_RETURN(uint32_t num_pages, meta.U32());
    std::vector<PageId> data_pages;
    data_pages.reserve(num_pages);
    for (uint32_t i = 0; i < num_pages; ++i) {
      MAYBMS_ASSIGN_OR_RETURN(uint32_t id, meta.U32());
      data_pages.push_back(id);
    }
    MAYBMS_ASSIGN_OR_RETURN(TablePtr table,
                            catalog->CreateTable(name, schema, uncertain != 0));
    uint64_t restored = 0;
    for (PageId page_id : data_pages) {
      if (page_id >= store->num_pages()) {
        return Status::ParseError("binary database: data page out of range");
      }
      MAYBMS_ASSIGN_OR_RETURN(PageRef ref, pool.Fetch(page_id));
      const uint16_t nslots = ref.page()->NumSlots();
      for (uint16_t slot = 0; slot < nslots; ++slot) {
        const std::string_view record = ref.page()->Record(slot);
        ByteReader r(record);
        MAYBMS_ASSIGN_OR_RETURN(uint8_t marker, r.U8());
        Row row;
        if (marker == 0) {
          MAYBMS_ASSIGN_OR_RETURN(
              row, DecodeRow(&r, schema, catalog->world_table()));
        } else if (marker == 1) {
          MAYBMS_ASSIGN_OR_RETURN(uint32_t ovf_first, r.U32());
          MAYBMS_RETURN_NOT_OK(r.U32().status());  // page count (implied)
          MAYBMS_ASSIGN_OR_RETURN(uint64_t nbytes, r.U64());
          std::string payload;
          MAYBMS_RETURN_NOT_OK(
              ReadRawChain(&pool, ovf_first, nbytes, &payload));
          ByteReader pr(payload);
          MAYBMS_ASSIGN_OR_RETURN(
              row, DecodeRow(&pr, schema, catalog->world_table()));
        } else {
          return Status::ParseError("binary database: unknown record marker");
        }
        MAYBMS_RETURN_NOT_OK(table->Append(std::move(row)));
        ++restored;
      }
    }
    if (restored != num_rows) {
      return Status::ParseError(StringFormat(
          "binary database: table '%s' has %llu rows, expected %llu",
          name.c_str(), static_cast<unsigned long long>(restored),
          static_cast<unsigned long long>(num_rows)));
    }
  }

  MAYBMS_ASSIGN_OR_RETURN(uint8_t has_evidence, meta.U8());
  if (has_evidence != 0) {
    if (evidence == nullptr) {
      return Status::ParseError(
          "binary database carries asserted evidence but no session store "
          "was given to restore it into");
    }
    MAYBMS_ASSIGN_OR_RETURN(uint64_t num_clauses, meta.U64());
    std::vector<Condition> clauses;
    clauses.reserve(static_cast<size_t>(num_clauses));
    for (uint64_t c = 0; c < num_clauses; ++c) {
      MAYBMS_ASSIGN_OR_RETURN(uint32_t natoms, meta.U32());
      Condition clause;
      for (uint32_t i = 0; i < natoms; ++i) {
        MAYBMS_ASSIGN_OR_RETURN(uint32_t var, meta.U32());
        MAYBMS_ASSIGN_OR_RETURN(uint32_t asg, meta.U32());
        if (var >= catalog->world_table().NumVariables() ||
            asg >= catalog->world_table().DomainSize(var)) {
          return Status::ParseError(
              "binary database: evidence atom references unknown variable");
        }
        if (!clause.AddAtom(Atom{var, asg})) {
          return Status::ParseError(
              "binary database: inconsistent evidence clause");
        }
      }
      if (clause.IsTrue()) {
        return Status::ParseError("binary database: empty evidence clause");
      }
      clauses.push_back(std::move(clause));
    }
    MAYBMS_RETURN_NOT_OK(evidence->Load(
        std::move(clauses), catalog->world_table(), ExactOptions{}));
  }

  // Index definitions re-register lazily: the first lookup (or INSERT)
  // against the restored table rebuilds the tree from the rows above.
  MAYBMS_ASSIGN_OR_RETURN(uint32_t num_indexes, meta.U32());
  for (uint32_t i = 0; i < num_indexes; ++i) {
    MAYBMS_ASSIGN_OR_RETURN(std::string idx_name, meta.Str());
    MAYBMS_ASSIGN_OR_RETURN(std::string idx_table, meta.Str());
    MAYBMS_ASSIGN_OR_RETURN(std::string idx_column, meta.Str());
    MAYBMS_ASSIGN_OR_RETURN(TablePtr table, catalog->GetTable(idx_table));
    MAYBMS_RETURN_NOT_OK(catalog->index_manager()
                             .CreateIndex(idx_name, table, idx_column,
                                          /*build_now=*/false)
                             .status());
  }
  return Status::OK();
}

Status RestoreDatabase(const std::string& dump, Catalog* catalog,
                       ConstraintStore* evidence) {
  if (!catalog->TableNames().empty() || catalog->world_table().NumVariables() != 0) {
    return Status::InvalidArgument(
        "RestoreDatabase requires a fresh catalog (variable ids are dense)");
  }
  std::istringstream in(dump);
  std::string line;
  if (!std::getline(in, line) || Trim(line) != kMagic) {
    return Status::ParseError("not a MayBMS dump (bad magic)");
  }

  if (!std::getline(in, line)) return Status::ParseError("truncated dump");
  // Optional LAYOUT line (dumps before it carried none: those restore
  // under the catalog's current default layout).
  size_t chunk_rows = 0;
  if (std::sscanf(line.c_str(), "LAYOUT snapshot_chunk_rows %zu", &chunk_rows) == 1) {
    if (chunk_rows == 0) {
      return Status::ParseError("LAYOUT snapshot_chunk_rows must be positive");
    }
    catalog->SetSnapshotChunkRows(chunk_rows);
    if (!std::getline(in, line)) return Status::ParseError("truncated dump");
  }
  size_t num_vars = 0;
  if (std::sscanf(line.c_str(), "WORLDTABLE %zu", &num_vars) != 1) {
    return Status::ParseError("missing WORLDTABLE section");
  }
  for (size_t i = 0; i < num_vars; ++i) {
    if (!std::getline(in, line)) return Status::ParseError("truncated world table");
    std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() < 3 || fields[0] != "V") {
      return Status::ParseError("malformed world-table record");
    }
    size_t domain = std::strtoull(fields[2].c_str(), nullptr, 10);
    if (fields.size() != 3 + domain) {
      return Status::ParseError("world-table record has wrong arity");
    }
    std::vector<double> probs;
    probs.reserve(domain);
    for (size_t a = 0; a < domain; ++a) {
      probs.push_back(std::strtod(fields[3 + a].c_str(), nullptr));
    }
    MAYBMS_ASSIGN_OR_RETURN(
        VarId v, catalog->world_table().NewVariable(std::move(probs),
                                                    Unescape(fields[1])));
    (void)v;
  }

  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed == "END") return Status::OK();
    size_t num_clauses = 0;
    if (std::sscanf(line.c_str(), "EVIDENCE %zu", &num_clauses) == 1) {
      if (evidence == nullptr) {
        return Status::ParseError(
            "dump carries asserted evidence but no session store was given "
            "to restore it into");
      }
      std::vector<Condition> clauses;
      clauses.reserve(num_clauses);
      for (size_t c = 0; c < num_clauses; ++c) {
        if (!std::getline(in, line)) {
          return Status::ParseError("truncated evidence section");
        }
        std::vector<std::string> fields = Split(line, '\t');
        if (fields.empty() || fields[0] != "E") {
          return Status::ParseError("malformed evidence record");
        }
        Condition clause;
        for (size_t i = 1; i < fields.size(); ++i) {
          unsigned var = 0, asg = 0;
          if (std::sscanf(fields[i].c_str(), "%u:%u", &var, &asg) != 2) {
            return Status::ParseError("malformed evidence atom");
          }
          if (var >= catalog->world_table().NumVariables() ||
              asg >= catalog->world_table().DomainSize(var)) {
            return Status::ParseError("evidence atom references unknown variable");
          }
          if (!clause.AddAtom(Atom{var, asg})) {
            return Status::ParseError("inconsistent evidence clause in dump");
          }
        }
        if (clause.IsTrue()) {
          return Status::ParseError("empty evidence clause in dump");
        }
        clauses.push_back(std::move(clause));
      }
      // Recompute P(C) against the restored world table; a probability-0
      // constraint means the dump is corrupt.
      MAYBMS_RETURN_NOT_OK(evidence->Load(
          std::move(clauses), catalog->world_table(), ExactOptions{}));
      continue;
    }
    std::vector<std::string> header = Split(line, '\t');
    if (header.size() != 5 || header[0] != "TABLE") {
      return Status::ParseError(
          StringFormat("expected TABLE record, got '%s'", line.c_str()));
    }
    std::string name = Unescape(header[1]);
    bool uncertain = header[2] == "1";
    size_t num_cols = std::strtoull(header[3].c_str(), nullptr, 10);
    size_t num_rows = std::strtoull(header[4].c_str(), nullptr, 10);

    Schema schema;
    for (size_t c = 0; c < num_cols; ++c) {
      if (!std::getline(in, line)) return Status::ParseError("truncated schema");
      std::vector<std::string> fields = Split(line, '\t');
      if (fields.size() != 3 || fields[0] != "C") {
        return Status::ParseError("malformed column record");
      }
      TypeId type;
      const std::string& t = fields[2];
      if (t == "int") {
        type = TypeId::kInt;
      } else if (t == "double") {
        type = TypeId::kDouble;
      } else if (t == "string") {
        type = TypeId::kString;
      } else if (t == "bool") {
        type = TypeId::kBool;
      } else if (t == "null") {
        type = TypeId::kNull;
      } else {
        return Status::ParseError(StringFormat("unknown column type '%s'", t.c_str()));
      }
      schema.AddColumn(Column{Unescape(fields[1]), type});
    }

    MAYBMS_ASSIGN_OR_RETURN(TablePtr table,
                            catalog->CreateTable(name, schema, uncertain));
    for (size_t r = 0; r < num_rows; ++r) {
      if (!std::getline(in, line)) return Status::ParseError("truncated rows");
      std::vector<std::string> fields = Split(line, '\t');
      if (fields.empty() || fields[0] != "R") {
        return Status::ParseError("malformed row record");
      }
      // Layout: R <v1> ... <vn> | <atom>*
      size_t bar = 0;
      for (size_t i = 1; i < fields.size(); ++i) {
        if (fields[i] == "|") {
          bar = i;
          break;
        }
      }
      if (bar != num_cols + 1) {
        return Status::ParseError("row record has wrong arity");
      }
      Row row;
      row.values.reserve(num_cols);
      for (size_t c = 0; c < num_cols; ++c) {
        MAYBMS_ASSIGN_OR_RETURN(Value v,
                                DeserializeValue(fields[1 + c], schema.column(c).type));
        row.values.push_back(std::move(v));
      }
      for (size_t i = bar + 1; i < fields.size(); ++i) {
        unsigned var = 0, asg = 0;
        if (std::sscanf(fields[i].c_str(), "%u:%u", &var, &asg) != 2) {
          return Status::ParseError("malformed condition atom");
        }
        if (var >= catalog->world_table().NumVariables() ||
            asg >= catalog->world_table().DomainSize(var)) {
          return Status::ParseError("condition atom references unknown variable");
        }
        if (!row.condition.AddAtom(Atom{var, asg})) {
          return Status::ParseError("inconsistent condition in dump");
        }
      }
      MAYBMS_RETURN_NOT_OK(table->Append(std::move(row)));
    }
  }
  return Status::ParseError("dump is missing the END marker");
}

Status LoadDatabaseFromFile(const std::string& path, Catalog* catalog,
                            ConstraintStore* evidence) {
  // Sniff the leading magic: binary paged files start with "MAYBMSP1",
  // text dumps with "MAYBMS DUMP v1" — one 8-byte read routes the load,
  // so older text dumps keep importing unchanged.
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError(StringFormat("cannot open '%s'", path.c_str()));
  char head[8] = {};
  in.read(head, sizeof(head));
  if (in.gcount() == sizeof(head) &&
      std::memcmp(head, kBinaryMagic, sizeof(kBinaryMagic)) == 0) {
    in.close();
    return LoadDatabaseBinary(path, catalog, evidence);
  }
  in.clear();
  in.seekg(0);
  std::stringstream buf;
  buf << in.rdbuf();
  return RestoreDatabase(buf.str(), catalog, evidence);
}

}  // namespace maybms
