#include "engine/database.h"

#include "catalog/tuple_codec.h"
#include "common/string_util.h"
#include "index/btree.h"
#include "index/mdi.h"
#include "index/mtree.h"
#include "sql/sql.h"

namespace mural {

std::string QueryResult::ToTable(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    if (c > 0) out += " | ";
    out += schema.column(c).name;
  }
  out += "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += " | ";
      out += rows[r][c].ToString();
    }
    out += "\n";
  }
  if (rows.size() > max_rows) {
    out += StringFormat("... (%zu rows total)\n", rows.size());
  }
  return out;
}

StatusOr<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  std::unique_ptr<Database> db(new Database());
  if (options.disk_path.empty()) {
    db->disk_ = std::make_unique<MemoryDiskManager>();
  } else {
    MURAL_ASSIGN_OR_RETURN(auto file_disk,
                           FileDiskManager::Open(options.disk_path));
    db->disk_ = std::move(file_disk);
  }
  db->pool_ = std::make_unique<BufferPool>(db->disk_.get(),
                                           options.buffer_pool_pages);
  db->catalog_ = std::make_unique<Catalog>(db->pool_.get());
  db->phoneme_cache_ =
      std::make_unique<PhonemeCache>(options.phoneme_cache_capacity);
  db->plan_cache_ = std::make_unique<PlanCache>(options.plan_cache_capacity);
  db->admission_ = std::make_unique<AdmissionController>(options.admission);
  db->session_defaults_.lexequal_threshold = options.lexequal_threshold;
  db->session_defaults_.degree_of_parallelism =
      options.degree_of_parallelism;
  db->session_defaults_.batch_size =
      static_cast<int64_t>(options.batch_size);
  return db;
}

Status Database::CreateTable(const std::string& name, Schema schema) {
  MURAL_RETURN_IF_ERROR(
      catalog_->CreateTable(name, std::move(schema)).status());
  plan_cache_->Invalidate();
  return Status::OK();
}

Status Database::Insert(const std::string& table, Row row) {
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
  const Schema& schema = info->schema;
  if (row.size() != schema.NumColumns()) {
    return Status::InvalidArgument("row arity mismatch for " + table);
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (schema.column(c).materialize_phonemes && !row[c].is_null() &&
        row[c].type() == TypeId::kUniText &&
        !row[c].unitext().has_phonemes()) {
      PhoneticTransformer::Default().Materialize(&row[c].mutable_unitext());
    }
  }
  TableWriter writer(info);
  return writer.Insert(row).status();
}

Status Database::InsertBulk(const std::string& table,
                            std::vector<Row> rows) {
  for (Row& row : rows) {
    MURAL_RETURN_IF_ERROR(Insert(table, std::move(row)));
  }
  return Status::OK();
}

Status Database::CreateIndex(const std::string& index_name,
                             const std::string& table,
                             const std::string& column, IndexKind kind,
                             bool on_phonemes) {
  if ((kind == IndexKind::kMTree || kind == IndexKind::kMdi) &&
      !on_phonemes) {
    return Status::InvalidArgument(
        "metric indexes must be built on materialized phoneme strings");
  }
  std::unique_ptr<AccessMethod> index;
  switch (kind) {
    case IndexKind::kBTree: {
      MURAL_ASSIGN_OR_RETURN(auto btree, BTreeIndex::Create(pool_.get()));
      index = std::move(btree);
      break;
    }
    case IndexKind::kMTree: {
      MURAL_ASSIGN_OR_RETURN(auto mtree, MTreeIndex::Create(pool_.get()));
      index = std::move(mtree);
      break;
    }
    case IndexKind::kMdi: {
      MURAL_ASSIGN_OR_RETURN(auto mdi, MdiIndex::Create(pool_.get()));
      index = std::move(mdi);
      break;
    }
  }
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
  const int col = info->schema.IndexOf(column);
  if (col < 0) {
    return Status::NotFound("no such column: " + table + "." + column);
  }
  // Backfill existing rows.
  Row row;
  for (auto it = info->heap->Begin(); it.Valid(); it.Next()) {
    MURAL_RETURN_IF_ERROR(
        TupleCodec::Deserialize(info->schema, it.record(), &row));
    const Value& v = row[static_cast<size_t>(col)];
    if (v.is_null()) continue;
    if (on_phonemes) {
      if (v.type() != TypeId::kUniText || !v.unitext().has_phonemes()) {
        return Status::InvalidArgument(
            "phoneme index requires materialized phonemes in " + table +
            "." + column);
      }
      MURAL_RETURN_IF_ERROR(
          index->Insert(Value::Text(*v.unitext().phonemes()), it.rid()));
    } else {
      MURAL_RETURN_IF_ERROR(index->Insert(v, it.rid()));
    }
  }
  MURAL_RETURN_IF_ERROR(
      catalog_
          ->CreateIndex(index_name, table, column, on_phonemes, kind,
                        std::move(index))
          .status());
  plan_cache_->Invalidate();
  return Status::OK();
}

Status Database::Analyze(const std::string& table) {
  ExecContext ctx;
  if (phoneme_cache_->enabled()) ctx.phoneme_cache = phoneme_cache_.get();
  return AnalyzeWith(table, &ctx);
}

Status Database::AnalyzeWith(const std::string& table, ExecContext* ctx) {
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
  MURAL_RETURN_IF_ERROR(stats_.Analyze(*info, ctx));
  // Fresh statistics change cardinality estimates and therefore which
  // cached binds are worth keeping hot; sweep the cache.
  plan_cache_->Invalidate();
  return Status::OK();
}

Status Database::LoadTaxonomy(std::unique_ptr<Taxonomy> taxonomy) {
  taxonomy_ = std::move(taxonomy);
  closure_cache_ = std::make_unique<ClosureCache>(taxonomy_.get());

  // Persist the hierarchy relationally so closure computation can also be
  // driven through the storage layer.
  for (const char* t : {"tax_synsets", "tax_edges", "tax_equiv"}) {
    if (catalog_->GetTable(t).ok()) {
      MURAL_RETURN_IF_ERROR(catalog_->DropTable(t));
    }
  }
  MURAL_RETURN_IF_ERROR(CreateTable(
      "tax_synsets",
      Schema({{"synset_id", TypeId::kInt32}, {"lemma", TypeId::kUniText}})));
  MURAL_RETURN_IF_ERROR(CreateTable(
      "tax_edges",
      Schema({{"child", TypeId::kInt32}, {"parent", TypeId::kInt32}})));
  MURAL_RETURN_IF_ERROR(CreateTable(
      "tax_equiv",
      Schema({{"a", TypeId::kInt32}, {"b", TypeId::kInt32}})));

  MURAL_ASSIGN_OR_RETURN(TableInfo * synsets,
                         catalog_->GetTable("tax_synsets"));
  MURAL_ASSIGN_OR_RETURN(TableInfo * edges, catalog_->GetTable("tax_edges"));
  MURAL_ASSIGN_OR_RETURN(TableInfo * equiv, catalog_->GetTable("tax_equiv"));
  TableWriter synsets_writer(synsets);
  TableWriter edges_writer(edges);
  TableWriter equiv_writer(equiv);
  for (const Synset& s : taxonomy_->synsets()) {
    MURAL_RETURN_IF_ERROR(
        synsets_writer
            .Insert({Value::Int32(static_cast<int32_t>(s.id)),
                     Value::Uni(s.lemma, s.lang)})
            .status());
    for (SynsetId child : taxonomy_->ChildrenOf(s.id)) {
      MURAL_RETURN_IF_ERROR(
          edges_writer
              .Insert({Value::Int32(static_cast<int32_t>(child)),
                       Value::Int32(static_cast<int32_t>(s.id))})
              .status());
    }
    for (SynsetId eq : taxonomy_->EquivalentsOf(s.id)) {
      if (eq > s.id) continue;  // store each symmetric pair once per side
      MURAL_RETURN_IF_ERROR(
          equiv_writer
              .Insert({Value::Int32(static_cast<int32_t>(s.id)),
                       Value::Int32(static_cast<int32_t>(eq))})
              .status());
    }
  }
  // Statistics so closure-path plans (index probe vs scan) are costed
  // correctly.
  for (const char* t : {"tax_synsets", "tax_edges", "tax_equiv"}) {
    MURAL_RETURN_IF_ERROR(Analyze(t));
  }
  return Status::OK();
}

Status Database::CreateTaxonomyIndexes() {
  MURAL_RETURN_IF_ERROR(CreateIndex("tax_edges_parent", "tax_edges",
                                    "parent", IndexKind::kBTree,
                                    /*on_phonemes=*/false));
  return CreateIndex("tax_equiv_a", "tax_equiv", "a", IndexKind::kBTree,
                     /*on_phonemes=*/false);
}

StatusOr<pl::UdfRuntime*> Database::udf_runtime() {
  if (udf_ == nullptr) {
    MURAL_ASSIGN_OR_RETURN(udf_, pl::UdfRuntime::Create());
    MURAL_RETURN_IF_ERROR(BindUdfHosts());
  }
  return udf_.get();
}

Status Database::BindUdfHosts() {
  pl::UdfRuntime* udf = udf_.get();

  udf->RegisterHost(
      "SQL_LOOKUP",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 2) {
          return Status::InvalidArgument("SQL_LOOKUP(lemma, lang)");
        }
        auto out = std::make_shared<std::vector<pl::PlValue>>();
        if (taxonomy_ != nullptr) {
          for (SynsetId id : taxonomy_->Lookup(
                   args[0].AsString(),
                   static_cast<LangId>(args[1].AsInt()))) {
            out->emplace_back(static_cast<int64_t>(id));
          }
        }
        return pl::PlValue(std::move(out));
      });

  udf->RegisterHost(
      "SQL_CHILDREN",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 1) {
          return Status::InvalidArgument("SQL_CHILDREN(parent)");
        }
        // The recursive-SQL mechanism, faithfully: the PL procedure
        // issues one SQL statement per expanded node, which the server
        // parses, binds, plans and executes every time.  With the
        // B+Tree enabled the plan is an index probe; without it the
        // statement degenerates to a scan of the edge table.
        const int32_t parent = static_cast<int32_t>(args[0].AsInt());
        const std::string statement =
            "SELECT child FROM tax_edges WHERE parent = " +
            std::to_string(parent);
        MURAL_ASSIGN_OR_RETURN(sql::Statement parsed,
                               sql::Parse(statement));
        MURAL_ASSIGN_OR_RETURN(LogicalPtr plan,
                               sql::Bind(parsed, catalog_.get()));
        PlannerHints hints;
        hints.enable_indexscan = outside_closure_btree_;
        ExecContext ctx;
        Planner planner(catalog_.get(), &stats_, &ctx);
        MURAL_ASSIGN_OR_RETURN(PhysicalPlan physical,
                               planner.Plan(plan, hints));
        MURAL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                               CollectAll(physical.root.get()));
        auto out = std::make_shared<std::vector<pl::PlValue>>();
        for (const Row& row : rows) {
          out->emplace_back(static_cast<int64_t>(row[0].int32()));
        }
        return pl::PlValue(std::move(out));
      });

  udf->RegisterHost(
      "SQL_EQUIVALENTS",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 1) {
          return Status::InvalidArgument("SQL_EQUIVALENTS(id)");
        }
        // Equivalence is symmetric but stored once; consult the pinned
        // adjacency (the stored table would need a union of two probes —
        // same result, and the closure cost is dominated by SQL_CHILDREN).
        auto out = std::make_shared<std::vector<pl::PlValue>>();
        if (taxonomy_ != nullptr) {
          const SynsetId id = static_cast<SynsetId>(args[0].AsInt());
          if (taxonomy_->Valid(id)) {
            for (SynsetId eq : taxonomy_->EquivalentsOf(id)) {
              out->emplace_back(static_cast<int64_t>(eq));
            }
          }
        }
        return pl::PlValue(std::move(out));
      });

  udf->RegisterHost("TEMPSET_NEW",
                    [this](const std::vector<pl::PlValue>&)
                        -> StatusOr<pl::PlValue> {
                      const int64_t handle = next_tempset_++;
                      tempsets_[handle] = {};
                      return pl::PlValue(handle);
                    });
  udf->RegisterHost(
      "TEMPSET_ADD",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 2) {
          return Status::InvalidArgument("TEMPSET_ADD(h, v)");
        }
        auto it = tempsets_.find(args[0].AsInt());
        if (it == tempsets_.end()) {
          return Status::NotFound("bad tempset handle");
        }
        return pl::PlValue(it->second.insert(args[1].AsInt()).second);
      });
  udf->RegisterHost(
      "TEMPSET_CONTAINS",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        if (args.size() != 2) {
          return Status::InvalidArgument("TEMPSET_CONTAINS(h, v)");
        }
        auto it = tempsets_.find(args[0].AsInt());
        if (it == tempsets_.end()) {
          return Status::NotFound("bad tempset handle");
        }
        return pl::PlValue(it->second.count(args[1].AsInt()) > 0);
      });
  udf->RegisterHost(
      "TEMPSET_SIZE",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        auto it = tempsets_.find(args[0].AsInt());
        if (it == tempsets_.end()) {
          return Status::NotFound("bad tempset handle");
        }
        return pl::PlValue(static_cast<int64_t>(it->second.size()));
      });
  udf->RegisterHost(
      "TEMPSET_FREE",
      [this](const std::vector<pl::PlValue>& args)
          -> StatusOr<pl::PlValue> {
        tempsets_.erase(args[0].AsInt());
        return pl::PlValue(true);
      });
  return Status::OK();
}

}  // namespace mural
