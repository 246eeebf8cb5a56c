#include "optimizer/serialization.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>

#include "common/span.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace pdx {

namespace {

constexpr const char* kSchemaMagic = "pdx-schema 1";
constexpr const char* kWorkloadMagic = "pdx-workload 1";
constexpr const char* kConfigMagic = "pdx-config 1";

// Doubles are serialized as hexfloats so selectivities round-trip exactly.
std::string HexDouble(double v) { return StringFormat("%a", v); }

std::string JoinCsv(std::span<const ColumnId> ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out.empty() ? "-" : out;
}

std::string JoinRefs(std::span<const ColumnRef> refs) {
  std::string out;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(refs[i].table) + ":" + std::to_string(refs[i].column);
  }
  return out.empty() ? "-" : out;
}

/// Reads a whole artifact into memory; every loader parses from one buffer.
Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot read '" + path + "'");
  std::string text(static_cast<size_t>(size), '\0');
  in.seekg(0, std::ios::beg);
  if (!in.read(text.data(), size)) {
    return Status::IOError("cannot read '" + path + "'");
  }
  return text;
}

/// Parses all of `s` as a decimal unsigned integer of type T: digits only
/// (no sign, no spaces), and the value must fit T.
template <typename T>
std::errc ParseUnsigned(std::string_view s, T* out) {
  static_assert(std::is_unsigned_v<T>);
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  if (ec == std::errc() && ptr != end) return std::errc::invalid_argument;
  return ec;
}

/// Parses all of `s` as a double: an optional sign, then either a `%a`
/// hexfloat ("0x1.8p-3") or a decimal / inf / nan spelling.
bool ParseReal(std::string_view s, double* out) {
  bool negative = false;
  if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
    negative = s[0] == '-';
    s.remove_prefix(1);
  }
  std::chars_format format = std::chars_format::general;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    format = std::chars_format::hex;
    s.remove_prefix(2);
  }
  // from_chars takes a '-' of its own; the sign was consumed above.
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out, format);
  if (ec != std::errc() || ptr != end) return false;
  if (negative) *out = -*out;
  return true;
}

/// Cursor over the lines of an in-memory artifact (or a slice of one).
/// Each non-empty line is split on tabs into string_views into the buffer,
/// reusing one field vector. Line numbers count every line, empty ones
/// included, from `first_line`; errors carry "path:line: ".
class RecordReader {
 public:
  RecordReader(const std::string& path, std::string_view text,
               size_t first_line = 1)
      : path_(path), text_(text), line_(first_line - 1) {}

  /// Advances to the next non-empty line; false at the end of the text.
  bool Next() {
    while (pos_ < text_.size()) {
      size_t nl = text_.find('\n', pos_);
      if (nl == std::string_view::npos) nl = text_.size();
      line_start_ = pos_;
      const std::string_view line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      ++line_;
      if (line.empty()) continue;
      fields_.clear();
      size_t begin = 0;
      for (size_t tab; (tab = line.find('\t', begin)) != line.npos;
           begin = tab + 1) {
        fields_.push_back(line.substr(begin, tab - begin));
      }
      fields_.push_back(line.substr(begin));
      return true;
    }
    return false;
  }

  size_t size() const { return fields_.size(); }
  std::string_view operator[](size_t i) const { return fields_[i]; }
  /// Line number and byte offset of the current record.
  size_t line() const { return line_; }
  size_t line_start() const { return line_start_; }

  Status Error(std::string_view message) const {
    return Status::IOError(path_ + ":" + std::to_string(line_) + ": " +
                           std::string(message));
  }

  /// Field i as an unsigned integer (or an enum, at most `max`).
  template <typename T>
  Status Uint(size_t i, T* out, T max = std::numeric_limits<T>::max()) const {
    if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      PDX_RETURN_IF_ERROR(
          Uint(i, &raw, static_cast<std::underlying_type_t<T>>(max)));
      *out = static_cast<T>(raw);
      return Status::OK();
    } else {
      const std::errc ec = ParseUnsigned(fields_[i], out);
      return CheckUint(fields_[i], ec, *out <= max);
    }
  }

  Status Real(size_t i, double* out) const {
    if (ParseReal(fields_[i], out)) return Status::OK();
    return Error("bad double '" + std::string(fields_[i]) + "'");
  }

  /// Field i as a comma-separated integer list; "-" is the empty list.
  template <typename T>
  Status List(size_t i, std::vector<T>* out) const {
    out->clear();
    std::string_view s = fields_[i];
    if (s == "-") return Status::OK();
    for (;;) {
      const size_t comma = std::min(s.find(','), s.size());
      const std::string_view piece = s.substr(0, comma);
      T v{};
      PDX_RETURN_IF_ERROR(CheckUint(piece, ParseUnsigned(piece, &v)));
      out->push_back(v);
      if (comma == s.size()) return Status::OK();
      s.remove_prefix(comma + 1);
    }
  }

  /// Field i as a comma-separated "table:column" list; "-" is empty.
  Status Refs(size_t i, std::vector<ColumnRef>* out) const {
    out->clear();
    std::string_view s = fields_[i];
    if (s == "-") return Status::OK();
    for (;;) {
      const size_t comma = std::min(s.find(','), s.size());
      const std::string_view piece = s.substr(0, comma);
      const size_t colon = piece.find(':');
      if (colon == piece.npos || piece.find(':', colon + 1) != piece.npos) {
        return Error("bad column ref '" + std::string(piece) + "'");
      }
      const std::string_view t = piece.substr(0, colon);
      const std::string_view c = piece.substr(colon + 1);
      ColumnRef ref;
      PDX_RETURN_IF_ERROR(CheckUint(t, ParseUnsigned(t, &ref.table)));
      PDX_RETURN_IF_ERROR(CheckUint(c, ParseUnsigned(c, &ref.column)));
      out->push_back(ref);
      if (comma == s.size()) return Status::OK();
      s.remove_prefix(comma + 1);
    }
  }

 private:
  Status CheckUint(std::string_view s, std::errc ec,
                   bool in_range = true) const {
    if (ec == std::errc::result_out_of_range || (ec == std::errc() &&
                                                 !in_range)) {
      return Error("integer '" + std::string(s) + "' out of range");
    }
    if (ec != std::errc()) return Error("bad integer '" + std::string(s) + "'");
    return Status::OK();
  }

  const std::string& path_;
  std::string_view text_;
  size_t pos_ = 0;
  size_t line_;
  size_t line_start_ = 0;
  std::vector<std::string_view> fields_;
};

/// Checks the magic line and the schema record every artifact starts with;
/// returns the schema name the artifact was saved against.
Result<std::string_view> ReadPreamble(RecordReader* r, const char* magic) {
  if (!r->Next() || r->size() != 1 || (*r)[0] != magic) {
    return r->Error(std::string("missing header '") + magic + "'");
  }
  if (!r->Next() || r->size() != 2 || (*r)[0] != "schema") {
    return r->Error("expected schema record");
  }
  return (*r)[1];
}

}  // namespace

// ---------------------------------------------------------------------------
// Schema

Status SaveSchema(const Schema& schema, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write '" + path + "'");
  out << kSchemaMagic << "\n";
  out << "schema\t" << schema.name() << "\n";
  for (const Table& t : schema.tables()) {
    out << "table\t" << t.name << "\t" << t.row_count << "\n";
    for (const Column& c : t.columns) {
      out << "col\t" << c.name << "\t" << static_cast<int>(c.type) << "\t"
          << c.width_bytes << "\t" << c.num_distinct << "\t"
          << HexDouble(c.zipf_theta) << "\n";
    }
  }
  out.flush();
  return out ? Status::OK() : Status::IOError("write failed for '" + path + "'");
}

Result<Schema> LoadSchema(const std::string& path) {
  obs::SpanScope span("load_schema", "serialization");
  auto text = ReadFile(path);
  PDX_RETURN_IF_ERROR(text.status());
  RecordReader r(path, *text);
  auto name = ReadPreamble(&r, kSchemaMagic);
  PDX_RETURN_IF_ERROR(name.status());

  Schema schema{std::string(*name)};
  Table current;
  bool have_table = false;
  auto flush_table = [&]() {
    if (have_table) schema.AddTable(std::move(current));
    current = Table();
    have_table = false;
  };
  while (r.Next()) {
    if (r[0] == "table") {
      if (r.size() != 3) return r.Error("bad table record");
      flush_table();
      have_table = true;
      current.name = r[1];
      PDX_RETURN_IF_ERROR(r.Uint(2, &current.row_count));
    } else if (r[0] == "col") {
      if (r.size() != 6 || !have_table) return r.Error("bad col record");
      Column c;
      c.name = r[1];
      PDX_RETURN_IF_ERROR(r.Uint(2, &c.type, DataType::kVarchar));
      PDX_RETURN_IF_ERROR(r.Uint(3, &c.width_bytes));
      PDX_RETURN_IF_ERROR(r.Uint(4, &c.num_distinct));
      PDX_RETURN_IF_ERROR(r.Real(5, &c.zipf_theta));
      current.columns.push_back(std::move(c));
    } else {
      return r.Error("unknown record '" + std::string(r[0]) + "'");
    }
  }
  flush_table();
  PDX_RETURN_IF_ERROR(schema.Validate());
  return schema;
}

// ---------------------------------------------------------------------------
// Workload

Status SaveWorkload(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write '" + path + "'");
  out << kWorkloadMagic << "\n";
  out << "schema\t" << workload.schema().name() << "\n";

  for (const QueryTemplate& t : workload.templates()) {
    std::string tables;
    for (size_t i = 0; i < t.tables.size(); ++i) {
      if (i > 0) tables += ",";
      tables += std::to_string(t.tables[i]);
    }
    if (tables.empty()) tables.push_back('-');
    out << "template\t" << t.id << "\t" << t.name << "\t"
        << static_cast<int>(t.kind) << "\t" << t.signature << "\t" << tables
        << "\n";
  }

  for (const Query& q : workload.queries()) {
    out << "query\t" << q.id << "\t" << q.template_id << "\t"
        << static_cast<int>(q.kind) << "\t" << HexDouble(q.optimize_overhead)
        << "\n";
    for (const TableAccess& a : q.select.accesses) {
      out << "access\t" << a.table << "\t" << JoinCsv(a.referenced_columns)
          << "\n";
      for (const Predicate& p : a.predicates) {
        out << "pred\t" << p.column.table << "\t" << p.column.column << "\t"
            << static_cast<int>(p.op) << "\t" << HexDouble(p.selectivity)
            << "\t" << (p.sargable ? 1 : 0) << "\t" << p.value_rank << "\t"
            << HexDouble(p.domain_fraction) << "\n";
      }
    }
    for (const JoinEdge& j : q.select.joins) {
      out << "join\t" << j.left_access << "\t" << j.right_access << "\t"
          << j.left_column << "\t" << j.right_column << "\n";
    }
    if (!q.select.group_by.empty()) {
      out << "groupby\t" << JoinRefs(q.select.group_by) << "\n";
    }
    if (!q.select.order_by.empty()) {
      out << "orderby\t" << JoinRefs(q.select.order_by) << "\n";
    }
    if (q.select.num_aggregates > 0) {
      out << "agg\t" << q.select.num_aggregates << "\n";
    }
    if (q.update.has_value()) {
      out << "update\t" << q.update->table << "\t"
          << static_cast<int>(q.update->kind) << "\t"
          << HexDouble(q.update->selectivity) << "\t"
          << JoinCsv(q.update->set_columns) << "\n";
    }
    out << "end\n";
  }
  out.flush();
  return out ? Status::OK() : Status::IOError("write failed for '" + path + "'");
}

namespace {

/// Decodes the query records of one slice of the query section: headers
/// into `out`, lists into `store`. Every slice but the last ends with an
/// "end" line and the next starts with a "query" line, so each slice starts
/// in the state the serial decoder would be in at that line: outside a
/// query.
Status DecodeQueries(RecordReader& r, size_t num_templates,
                     std::vector<Query>* out, QueryStore* store) {
  Query query;
  bool in_query = false;
  bool in_access = false;
  // Parsed lists, reused across records.
  std::vector<ColumnId> ids;
  std::vector<ColumnRef> refs;
  while (r.Next()) {
    const std::string_view tag = r[0];
    if (tag == "query") {
      if (r.size() != 5) return r.Error("bad query record");
      if (in_query) return r.Error("query without end");
      query = Query();
      in_query = true;
      in_access = false;
      PDX_RETURN_IF_ERROR(r.Uint(2, &query.template_id));
      if (query.template_id >= num_templates) {
        return r.Error("query template id " +
                       std::to_string(query.template_id) +
                       " not registered (" + std::to_string(num_templates) +
                       " templates)");
      }
      PDX_RETURN_IF_ERROR(r.Uint(3, &query.kind, StatementKind::kDelete));
      PDX_RETURN_IF_ERROR(r.Real(4, &query.optimize_overhead));
    } else if (tag == "access") {
      if (r.size() != 3 || !in_query) return r.Error("bad access record");
      TableId table = kInvalidTableId;
      PDX_RETURN_IF_ERROR(r.Uint(1, &table));
      PDX_RETURN_IF_ERROR(r.List(2, &ids));
      store->AddAccess(table, ids);
      in_access = true;
    } else if (tag == "pred") {
      if (r.size() != 8 || !in_access) return r.Error("bad pred record");
      Predicate p;
      PDX_RETURN_IF_ERROR(r.Uint(1, &p.column.table));
      PDX_RETURN_IF_ERROR(r.Uint(2, &p.column.column));
      PDX_RETURN_IF_ERROR(r.Uint(3, &p.op, PredOp::kIn));
      PDX_RETURN_IF_ERROR(r.Real(4, &p.selectivity));
      p.sargable = r[5] == "1";
      PDX_RETURN_IF_ERROR(r.Uint(6, &p.value_rank));
      PDX_RETURN_IF_ERROR(r.Real(7, &p.domain_fraction));
      store->AddPredicate(p);
    } else if (tag == "join") {
      if (r.size() != 5 || !in_query) return r.Error("bad join record");
      JoinEdge j;
      PDX_RETURN_IF_ERROR(r.Uint(1, &j.left_access));
      PDX_RETURN_IF_ERROR(r.Uint(2, &j.right_access));
      PDX_RETURN_IF_ERROR(r.Uint(3, &j.left_column));
      PDX_RETURN_IF_ERROR(r.Uint(4, &j.right_column));
      store->AddJoin(j);
    } else if (tag == "groupby") {
      if (r.size() != 2 || !in_query) return r.Error("bad groupby");
      PDX_RETURN_IF_ERROR(r.Refs(1, &refs));
      store->SetGroupBy(refs);
    } else if (tag == "orderby") {
      if (r.size() != 2 || !in_query) return r.Error("bad orderby");
      PDX_RETURN_IF_ERROR(r.Refs(1, &refs));
      store->SetOrderBy(refs);
    } else if (tag == "agg") {
      if (r.size() != 2 || !in_query) return r.Error("bad agg");
      PDX_RETURN_IF_ERROR(r.Uint(1, &query.select.num_aggregates));
    } else if (tag == "update") {
      if (r.size() != 5 || !in_query) return r.Error("bad update");
      UpdateSpec& u = query.update.emplace();
      PDX_RETURN_IF_ERROR(r.Uint(1, &u.table));
      PDX_RETURN_IF_ERROR(r.Uint(2, &u.kind, StatementKind::kDelete));
      PDX_RETURN_IF_ERROR(r.Real(3, &u.selectivity));
      PDX_RETURN_IF_ERROR(r.List(4, &ids));
      store->SetUpdateColumns(ids);
    } else if (tag == "end") {
      if (!in_query) return r.Error("end without query");
      out->push_back(store->Finish(query));
      in_query = false;
      in_access = false;
    } else if (tag == "template") {
      return r.Error("template record after the first query record");
    } else {
      return r.Error("unknown record '" + std::string(tag) + "'");
    }
  }
  if (in_query) return r.Error("truncated file: query without end");
  return Status::OK();
}

/// Byte offsets where the query section is cut for parallel decoding: the
/// first "end" line / "query" line boundary at least kWorkloadChunkBytes
/// past the previous cut. Depends on the text only, never on the thread
/// count.
std::vector<size_t> ChunkStarts(std::string_view section) {
  static constexpr std::string_view kCut = "\nend\nquery\t";
  std::vector<size_t> starts = {0};
  for (size_t hit; (hit = section.find(kCut, starts.back() +
                                               kWorkloadChunkBytes)) !=
                   section.npos;) {
    starts.push_back(hit + 5);  // just past "\nend\n"
  }
  return starts;
}

}  // namespace

Result<Workload> LoadWorkload(const std::string& path, const Schema& schema) {
  obs::SpanScope span("load_workload", "serialization");
  std::optional<obs::SpanScope> phase(std::in_place, "read", "serialization");
  auto text = ReadFile(path);
  PDX_RETURN_IF_ERROR(text.status());
  phase.reset();
  phase.emplace("decode", "serialization");
  RecordReader r(path, *text);
  auto name = ReadPreamble(&r, kWorkloadMagic);
  PDX_RETURN_IF_ERROR(name.status());
  if (*name != schema.name()) {
    return Status::InvalidArgument("workload was saved against schema '" +
                                   std::string(*name) + "', got '" +
                                   schema.name() + "'");
  }

  // Templates, serially: they all precede the first query record, so the
  // query decoder below knows every valid template id.
  Workload workload(&schema);
  bool more = r.Next();
  for (; more && r[0] == "template"; more = r.Next()) {
    if (r.size() != 6) return r.Error("bad template record");
    QueryTemplate t;
    t.name = r[2];
    PDX_RETURN_IF_ERROR(r.Uint(3, &t.kind, StatementKind::kDelete));
    PDX_RETURN_IF_ERROR(r.Uint(4, &t.signature));
    PDX_RETURN_IF_ERROR(r.List(5, &t.tables));
    workload.AddTemplate(std::move(t));
  }
  if (!more) return workload;  // no queries: nothing to validate

  // Query bodies, in parallel: the section from the first non-template
  // record on is cut into chunks that are decoded independently and
  // appended in file order, so the result does not depend on the thread
  // count, and the first failing chunk holds the first error in the file.
  const std::string_view section =
      std::string_view(*text).substr(r.line_start());
  const std::vector<size_t> starts = ChunkStarts(section);
  const size_t num_chunks = starts.size();
  auto chunk_text = [&](size_t i) {
    const size_t end = i + 1 < num_chunks ? starts[i + 1] : section.size();
    return section.substr(starts[i], end - starts[i]);
  };
  // First line number of each chunk: a prefix sum of per-chunk newlines.
  std::vector<size_t> first_line(num_chunks + 1, 0);
  GlobalThreadPool().ParallelFor(0, num_chunks, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const std::string_view c = chunk_text(i);
      first_line[i + 1] =
          static_cast<size_t>(std::count(c.begin(), c.end(), '\n'));
    }
  });
  first_line[0] = r.line();
  for (size_t i = 0; i < num_chunks; ++i) first_line[i + 1] += first_line[i];

  // Each chunk decodes into its own flat store; the workload then adopts
  // the stores without copying their elements.
  const size_t num_templates = workload.num_templates();
  std::vector<std::vector<Query>> decoded(num_chunks);
  std::vector<QueryStore> stores(num_chunks);
  std::vector<Status> status(num_chunks);
  GlobalThreadPool().ParallelFor(0, num_chunks, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      RecordReader chunk(path, chunk_text(i), first_line[i]);
      status[i] = DecodeQueries(chunk, num_templates, &decoded[i], &stores[i]);
    }
  });

  size_t total = 0;
  for (size_t i = 0; i < num_chunks; ++i) {
    PDX_RETURN_IF_ERROR(status[i]);
    total += decoded[i].size();
  }
  workload.Reserve(total);
  for (size_t i = 0; i < num_chunks; ++i) {
    workload.AdoptQueries(decoded[i], std::move(stores[i]));
    std::vector<Query>().swap(decoded[i]);
  }
  phase.reset();
  phase.emplace("validate", "serialization");
  PDX_RETURN_IF_ERROR(workload.Validate());
  return workload;
}

// ---------------------------------------------------------------------------
// Configuration

Status SaveConfiguration(const Configuration& config, const Schema& schema,
                         const std::string& path) {
  (void)schema;  // reserved for name validation on save
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write '" + path + "'");
  out << kConfigMagic << "\n";
  out << "schema\t" << schema.name() << "\n";
  out << "name\t" << (config.name().empty() ? "-" : config.name()) << "\n";
  for (const Index& i : config.indexes()) {
    out << "index\t" << i.table << "\t" << JoinCsv(i.key_columns) << "\t"
        << JoinCsv(i.include_columns) << "\n";
  }
  for (const MaterializedView& v : config.views()) {
    std::string tables;
    for (size_t i = 0; i < v.tables.size(); ++i) {
      if (i > 0) tables += ",";
      tables += std::to_string(v.tables[i]);
    }
    std::string sig;
    for (size_t i = 0; i < v.join_signature.size(); ++i) {
      if (i > 0) sig += ",";
      sig += std::to_string(v.join_signature[i]);
    }
    out << "view\t" << (v.name.empty() ? "-" : v.name) << "\t" << v.row_count
        << "\t" << (tables.empty() ? "-" : tables) << "\t"
        << (sig.empty() ? "-" : sig) << "\t" << JoinRefs(v.group_by) << "\t"
        << JoinRefs(v.exposed_columns) << "\n";
  }
  out.flush();
  return out ? Status::OK() : Status::IOError("write failed for '" + path + "'");
}

Result<Configuration> LoadConfiguration(const std::string& path,
                                        const Schema& schema) {
  obs::SpanScope span("load_configuration", "serialization");
  auto text = ReadFile(path);
  PDX_RETURN_IF_ERROR(text.status());
  RecordReader r(path, *text);
  auto name = ReadPreamble(&r, kConfigMagic);
  PDX_RETURN_IF_ERROR(name.status());
  if (*name != schema.name()) {
    return Status::InvalidArgument("configuration was saved against schema '" +
                                   std::string(*name) + "', got '" +
                                   schema.name() + "'");
  }
  if (!r.Next() || r.size() != 2 || r[0] != "name") {
    return r.Error("expected name record");
  }
  Configuration config(r[1] == "-" ? "" : std::string(r[1]));

  while (r.Next()) {
    if (r[0] == "index") {
      if (r.size() != 4) return r.Error("bad index record");
      Index i;
      PDX_RETURN_IF_ERROR(r.Uint(1, &i.table));
      if (i.table >= schema.num_tables()) {
        return r.Error("index table out of range");
      }
      PDX_RETURN_IF_ERROR(r.List(2, &i.key_columns));
      PDX_RETURN_IF_ERROR(r.List(3, &i.include_columns));
      for (ColumnId c : i.key_columns) {
        if (c >= schema.table(i.table).columns.size()) {
          return r.Error("index key column out of range");
        }
      }
      config.AddIndex(std::move(i));
    } else if (r[0] == "view") {
      if (r.size() != 7) return r.Error("bad view record");
      MaterializedView v;
      if (r[1] != "-") v.name = r[1];
      PDX_RETURN_IF_ERROR(r.Uint(2, &v.row_count));
      PDX_RETURN_IF_ERROR(r.List(3, &v.tables));
      for (TableId t : v.tables) {
        if (t >= schema.num_tables()) {
          return r.Error("view table out of range");
        }
      }
      PDX_RETURN_IF_ERROR(r.List(4, &v.join_signature));
      PDX_RETURN_IF_ERROR(r.Refs(5, &v.group_by));
      PDX_RETURN_IF_ERROR(r.Refs(6, &v.exposed_columns));
      config.AddView(std::move(v));
    } else {
      return r.Error("unknown record '" + std::string(r[0]) + "'");
    }
  }
  return config;
}

}  // namespace pdx
