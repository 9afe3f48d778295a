#include "workloads.h"

#include <algorithm>

#include "common/random.h"
#include "datagen/catalog_generator.h"
#include "datagen/name_generator.h"
#include "datagen/taxonomy_generator.h"
#include "distance/edit_distance.h"
#include "phonetic/transformer.h"

namespace murald_bench {

using mural::Database;
using mural::LangId;
using mural::Rng;
using mural::Schema;
using mural::Status;
using mural::SynsetId;
using mural::TypeId;
using mural::UniText;
using mural::Value;

namespace {

// The LexEQUAL threshold every Psi statement carries (murald's default).
constexpr int kThreshold = 2;

const std::vector<LangId> kNameLanguages = {
    mural::lang::kEnglish, mural::lang::kHindi, mural::lang::kTamil,
    mural::lang::kKannada, mural::lang::kFrench};

/// 'text'@Language, the SQL spelling of a UniText literal.
std::string Literal(const UniText& u) {
  return "'" + u.text() + "'@" +
         mural::LanguageRegistry::Default().NameOf(u.lang());
}

/// A value the line protocol and the SQL lexer carry verbatim.
bool Quotable(const std::string& text) {
  return !text.empty() &&
         text.find_first_of("'\n\r|") == std::string::npos;
}

std::string Phonemes(const UniText& u) {
  return mural::PhoneticTransformer::Default().Transform(u);
}

/// The oracle's Psi predicate: the unbounded reference Levenshtein over
/// phoneme strings.  A length gap above the threshold is itself a
/// distance above it, so those pairs skip the DP.
bool PsiMatch(const std::string& a, const std::string& b) {
  const size_t gap = a.size() > b.size() ? a.size() - b.size()
                                         : b.size() - a.size();
  if (gap > static_cast<size_t>(kThreshold)) return false;
  return mural::Levenshtein(a, b) <= kThreshold;
}

/// How the server renders one result row.
std::string RowLine(int32_t id, const UniText& name) {
  return Value::Int32(id).ToString() + " | " + Value::Uni(name).ToString();
}

/// An unseen multilingual name (never in a generated corpus by
/// construction of the probe: fresh base, random language).
UniText FreshName(Rng* rng) {
  while (true) {
    const LangId lang = kNameLanguages[rng->Uniform(kNameLanguages.size())];
    std::string text = mural::RenderNameInLanguage(
        mural::RandomBaseName(rng), lang, rng, 0.25);
    if (Quotable(text)) return UniText(std::move(text), lang);
  }
}

/// `count` distinct indexes in [0, n), in seeded order.
std::vector<size_t> SampleIndexes(size_t n, size_t count, Rng* rng) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  rng->Shuffle(&all);
  all.resize(std::min(count, n));
  return all;
}

Status CreateNamesTable(Database* db, const std::string& table,
                        const std::vector<mural::NameRecord>& records) {
  MURAL_RETURN_IF_ERROR(db->CreateTable(
      table, Schema({{"id", TypeId::kInt32},
                     {"name", TypeId::kUniText, /*mat=*/true}})));
  for (const mural::NameRecord& rec : records) {
    MURAL_RETURN_IF_ERROR(
        db->Insert(table, {Value::Int32(static_cast<int32_t>(rec.id)),
                           Value::Uni(rec.name)}));
  }
  return Status::OK();
}

/// A Psi parameter pool entry: the probe and its expected rows.
struct PsiProbe {
  UniText probe;
  std::string phonemes;
  std::vector<std::string> expected;  // sorted RowLine()s
};

/// Builds a pool of Psi probes over `records`: `corpus` probes drawn from
/// the records themselves plus `unseen` fresh names, expected rows by
/// brute force.
std::vector<PsiProbe> BuildPsiPool(
    const std::vector<mural::NameRecord>& records,
    const std::vector<std::string>& record_phonemes, size_t corpus,
    size_t unseen, Rng* rng) {
  std::vector<PsiProbe> pool;
  for (size_t idx : SampleIndexes(records.size(), records.size(), rng)) {
    if (pool.size() == corpus) break;
    if (Quotable(records[idx].name.text())) {
      pool.push_back(PsiProbe{records[idx].name, record_phonemes[idx], {}});
    }
  }
  for (size_t i = 0; i < unseen; ++i) {
    UniText name = FreshName(rng);
    std::string ph = Phonemes(name);
    pool.push_back(PsiProbe{std::move(name), std::move(ph), {}});
  }
  for (PsiProbe& p : pool) {
    for (size_t r = 0; r < records.size(); ++r) {
      if (PsiMatch(p.phonemes, record_phonemes[r])) {
        p.expected.push_back(RowLine(static_cast<int32_t>(records[r].id),
                                     records[r].name));
      }
    }
    std::sort(p.expected.begin(), p.expected.end());
  }
  return pool;
}

std::vector<std::string> PhonemesOf(
    const std::vector<mural::NameRecord>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const mural::NameRecord& r : records) out.push_back(Phonemes(r.name));
  return out;
}

// ------------------------------------------------------------- psi_scan

class PsiScan : public Workload {
 public:
  std::vector<std::string> classes() const override { return {"psi_select"}; }

  void Generate(uint64_t seed) override {
    mural::NameGenOptions options;
    options.seed = seed;
    options.num_bases = 20000;
    options.variants_per_base = 5;
    options.languages = kNameLanguages;
    records_ = mural::GenerateNames(options);
    phonemes_ = PhonemesOf(records_);
    Rng rng(seed ^ 0x5ca1ab1e);
    pool_ = BuildPsiPool(records_, phonemes_, /*corpus=*/96, /*unseen=*/32,
                         &rng);
    order_ = SampleIndexes(pool_.size(), pool_.size(), &rng);
  }

  Status Load(Database* db) override {
    MURAL_RETURN_IF_ERROR(CreateNamesTable(db, "names", records_));
    return db->Analyze("names");
  }

  size_t WarmupCount() const override { return 4; }
  int Segments() const override { return 8; }

  Op Next() override {
    const PsiProbe& p = pool_[order_[next_++ % order_.size()]];
    std::string sql = Sql(p);
    return Op{0, sql, sql, &p.expected};
  }

  std::vector<std::pair<std::string, std::string>> Templates()
      const override {
    return {{"psi_select", Sql(pool_[order_[0]])}};
  }
  std::vector<std::string> PsiTemplates() const override {
    return {"psi_select"};
  }

  LayerInputs Layers() const override {
    LayerInputs in;
    in.table = "names";
    in.unitext_column = "name";
    for (const PsiProbe& p : pool_) {
      in.g2p_names.push_back(p.probe);
      in.probe_phonemes.push_back(p.phonemes);
    }
    in.stored_phonemes = phonemes_;
    return in;
  }

 private:
  static std::string Sql(const PsiProbe& p) {
    return "SELECT id, name FROM names WHERE name LexEQUAL " +
           Literal(p.probe) + " THRESHOLD 2";
  }

  std::vector<mural::NameRecord> records_;
  std::vector<std::string> phonemes_;
  std::vector<PsiProbe> pool_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

// ------------------------------------------------ Books.com (shared)

/// Generates the Books.com catalog over a 60k-synset taxonomy and loads
/// it: Author / Publisher / Book with non-materialized name columns.
class BooksBase : public Workload {
 protected:
  static mural::TaxonomyGenOptions TaxonomyOptions(uint64_t seed) {
    mural::TaxonomyGenOptions options;
    options.seed = seed;
    options.base_synsets = 20000;  // x 3 languages = 60k synsets
    return options;
  }

  void GenerateBooks(uint64_t seed, size_t num_authors) {
    seed_ = seed;
    taxonomy_ = mural::GenerateTaxonomy(TaxonomyOptions(seed));
    mural::BooksGenOptions options;
    options.seed = seed;
    options.num_authors = num_authors;
    options.num_publishers = 500;
    options.num_books = 10000;
    books_ = mural::GenerateBooks(options, taxonomy_);
  }

  /// A SemEQUAL concept of the generated taxonomy: its literal and the
  /// synsets it names.
  struct Concept {
    UniText value;
    std::vector<SynsetId> roots;
    std::vector<std::string> expected;  // semequal_scan's oracle
  };

  /// 100 concepts whose closures span 10^2..10^4, 25 in each of four
  /// half-decade buckets of closure size, so every seed sees the same
  /// spread.  Ordered by bucket.
  std::vector<Concept> StratifiedConcepts(Rng* rng) const {
    constexpr size_t kPerBucket = 25;
    const size_t kBounds[] = {100, 316, 1000, 3162, 10001};
    const mural::Taxonomy& tax = *taxonomy_.taxonomy;
    std::vector<std::vector<Concept>> buckets(4);
    for (size_t id : SampleIndexes(tax.size(), tax.size(), rng)) {
      const mural::Synset& s = tax.Get(static_cast<SynsetId>(id));
      if (tax.ChildrenOf(s.id).empty() || !Quotable(s.lemma)) continue;
      std::vector<SynsetId> roots = tax.Lookup(s.lemma, s.lang);
      const size_t size = tax.TransitiveClosureOfAll(roots).size();
      if (size < kBounds[0] || size >= kBounds[4]) continue;
      size_t b = 0;
      while (size >= kBounds[b + 1]) ++b;
      if (buckets[b].size() >= kPerBucket) continue;
      buckets[b].push_back(
          Concept{UniText(s.lemma, s.lang), std::move(roots), {}});
      bool full = true;
      for (const auto& bucket : buckets) full &= bucket.size() >= kPerBucket;
      if (full) break;
    }
    std::vector<Concept> out;
    for (auto& bucket : buckets) {
      for (Concept& c : bucket) out.push_back(std::move(c));
    }
    return out;
  }

  /// Every synset `concepts` name: the closure probe's roots.
  static std::vector<SynsetId> ClosureRoots(
      const std::vector<Concept>& concepts) {
    std::vector<SynsetId> roots;
    for (const Concept& c : concepts) {
      roots.insert(roots.end(), c.roots.begin(), c.roots.end());
    }
    return roots;
  }

  Status LoadBooks(Database* db) const {
    MURAL_RETURN_IF_ERROR(db->CreateTable(
        "Author", Schema({{"AuthorID", TypeId::kInt32},
                          {"AName", TypeId::kUniText}})));
    MURAL_RETURN_IF_ERROR(db->CreateTable(
        "Publisher", Schema({{"PublisherID", TypeId::kInt32},
                             {"PName", TypeId::kUniText}})));
    MURAL_RETURN_IF_ERROR(db->CreateTable(
        "Book", Schema({{"BookID", TypeId::kInt32},
                        {"AuthorID", TypeId::kInt32},
                        {"PublisherID", TypeId::kInt32},
                        {"Title", TypeId::kUniText},
                        {"Category", TypeId::kUniText}})));
    for (const mural::AuthorRow& a : books_.authors) {
      MURAL_RETURN_IF_ERROR(db->Insert(
          "Author", {Value::Int32(a.author_id), Value::Uni(a.name)}));
    }
    for (const mural::PublisherRow& p : books_.publishers) {
      MURAL_RETURN_IF_ERROR(db->Insert(
          "Publisher", {Value::Int32(p.publisher_id), Value::Uni(p.name)}));
    }
    for (const mural::BookRow& b : books_.books) {
      MURAL_RETURN_IF_ERROR(db->Insert(
          "Book", {Value::Int32(b.book_id), Value::Int32(b.author_id),
                   Value::Int32(b.publisher_id), Value::Uni(b.title),
                   Value::Uni(b.category)}));
    }
    for (const char* t : {"Author", "Publisher", "Book"}) {
      MURAL_RETURN_IF_ERROR(db->Analyze(t));
    }
    return Status::OK();
  }

  uint64_t seed_ = 0;
  mural::GeneratedTaxonomy taxonomy_;
  mural::BooksDataset books_;
};

// ------------------------------------------------------------ xling_join

class XlingJoin : public BooksBase {
 public:
  /// Four whole 2048-row probe morsels of LexJoinOp (the outer side is
  /// Author), so at DOP 4 every strip joins one morsel and all four
  /// threads finish together.  With 3k authors the join made one full and
  /// one 952-row morsel on two threads: a statement took one thread's 2048
  /// rows when the two ran side by side and up to all 3k when they did
  /// not, and which of the two a set-up got moved its median by 20-30%.
  static constexpr size_t kAuthors = 4 * 2048;

  std::vector<std::string> classes() const override { return {"psi_join"}; }

  void Generate(uint64_t seed) override {
    GenerateBooks(seed, kAuthors);
    for (const mural::AuthorRow& a : books_.authors) {
      author_ph_.push_back(Phonemes(a.name));
    }
    for (const mural::PublisherRow& p : books_.publishers) {
      publisher_ph_.push_back(Phonemes(p.name));
    }
    // Matches per publisher; a variant excluding publisher k counts
    // every match but k's.
    std::vector<int64_t> per_publisher(publisher_ph_.size(), 0);
    int64_t total = 0;
    for (size_t p = 0; p < publisher_ph_.size(); ++p) {
      for (const std::string& a : author_ph_) {
        if (PsiMatch(a, publisher_ph_[p])) ++per_publisher[p];
      }
      total += per_publisher[p];
    }
    Rng rng(seed ^ 0x10ca1e);
    for (size_t p : SampleIndexes(books_.publishers.size(), 100, &rng)) {
      Variant v;
      v.excluded = books_.publishers[p].publisher_id;
      v.expected = {
          Value::Int64(total - per_publisher[p]).ToString()};
      pool_.push_back(std::move(v));
    }
    // No statement here walks the taxonomy; the traced run's closure
    // probe does, over concepts chosen as semequal_scan chooses its own.
    closure_roots_ = ClosureRoots(StratifiedConcepts(&rng));
    // Keys for the traced run's B-tree probe on Author.AuthorID.
    for (size_t i : SampleIndexes(books_.authors.size(), 4096, &rng)) {
      author_keys_.push_back(books_.authors[i].author_id);
    }
  }

  /// Books.com plus a B-tree on Author.AuthorID.  No statement of the
  /// stream uses it; it gives the traced run's B-tree probe an index.
  Status Load(Database* db) override {
    MURAL_RETURN_IF_ERROR(LoadBooks(db));
    return db->CreateIndex("author_id", "Author", "AuthorID",
                           mural::IndexKind::kBTree, false);
  }

  size_t WarmupCount() const override { return 4; }
  int Segments() const override { return 8; }

  Op Next() override {
    const Variant& v = pool_[next_++ % pool_.size()];
    std::string sql = Sql(v);
    return Op{0, sql, sql, &v.expected};
  }

  std::vector<std::pair<std::string, std::string>> Templates()
      const override {
    return {{"psi_join", Sql(pool_[0])}};
  }

  LayerInputs Layers() const override {
    LayerInputs in;
    in.table = "Author";
    in.unitext_column = "AName";
    for (const mural::AuthorRow& a : books_.authors) {
      in.g2p_names.push_back(a.name);
    }
    for (const mural::PublisherRow& p : books_.publishers) {
      in.g2p_names.push_back(p.name);
    }
    in.probe_phonemes = publisher_ph_;
    in.stored_phonemes = author_ph_;
    in.btree_index = "author_id";
    in.btree_keys = author_keys_;
    in.taxonomy = taxonomy_.taxonomy.get();
    in.closure_roots = closure_roots_;
    return in;
  }

 private:
  struct Variant {
    int32_t excluded = 0;
    std::vector<std::string> expected;
  };

  static std::string Sql(const Variant& v) {
    return "SELECT count(*) FROM Author A, Publisher P "
           "WHERE A.AName LexEQUAL P.PName AND P.PublisherID <> " +
           std::to_string(v.excluded);
  }

  std::vector<std::string> author_ph_;
  std::vector<std::string> publisher_ph_;
  std::vector<Variant> pool_;
  std::vector<SynsetId> closure_roots_;
  std::vector<int32_t> author_keys_;
  size_t next_ = 0;
};

// --------------------------------------------------------- semequal_scan

class SemequalScan : public BooksBase {
 public:
  std::vector<std::string> classes() const override {
    return {"omega_count"};
  }

  void Generate(uint64_t seed) override {
    GenerateBooks(seed, /*num_authors=*/3000);
    const mural::Taxonomy& tax = *taxonomy_.taxonomy;
    // Synsets of every book's category, resolved once.
    std::vector<std::vector<SynsetId>> book_synsets;
    for (const mural::BookRow& b : books_.books) {
      book_synsets.push_back(tax.Lookup(b.category));
    }
    Rng rng(seed ^ 0x5e3a);
    pool_ = StratifiedConcepts(&rng);
    for (Concept& c : pool_) {
      const mural::Closure closure = tax.TransitiveClosureOfAll(c.roots);
      int64_t count = 0;
      for (const std::vector<SynsetId>& ids : book_synsets) {
        for (SynsetId sid : ids) {
          if (closure.count(sid) > 0) {
            ++count;
            break;
          }
        }
      }
      c.expected = {Value::Int64(count).ToString()};
    }
    order_ = SampleIndexes(pool_.size(), pool_.size(), &rng);
  }

  void PrepareLoad() override {
    // LoadTaxonomy takes ownership; hand each set-up its own copy.
    load_taxonomy_ = mural::GenerateTaxonomy(TaxonomyOptions(seed_)).taxonomy;
  }

  Status Load(Database* db) override {
    MURAL_RETURN_IF_ERROR(LoadBooks(db));
    MURAL_RETURN_IF_ERROR(db->LoadTaxonomy(std::move(load_taxonomy_)));
    return db->CreateTaxonomyIndexes();
  }

  // One pass over the pool: every closure the run probes is materialized
  // in set-up, so the measured statements are all of one kind.
  size_t WarmupCount() const override { return pool_.size(); }
  // Statement cost varies between set-ups as much as psi_scan's; six
  // segments average over six of them.
  int Segments() const override { return 6; }

  Op Next() override {
    const Concept& c = pool_[order_[next_++ % order_.size()]];
    std::string sql = Sql(c);
    return Op{0, sql, sql, &c.expected};
  }

  std::vector<std::pair<std::string, std::string>> Templates()
      const override {
    return {{"omega_count", Sql(pool_[order_[0]])}};
  }

  LayerInputs Layers() const override {
    LayerInputs in;
    in.table = "Book";
    in.unitext_column = "Category";
    in.taxonomy = taxonomy_.taxonomy.get();
    in.closure_roots = ClosureRoots(pool_);
    return in;
  }

 private:
  static std::string Sql(const Concept& c) {
    return "SELECT count(*) FROM Book WHERE Category SemEQUAL " +
           Literal(c.value);
  }

  std::unique_ptr<mural::Taxonomy> load_taxonomy_;
  std::vector<Concept> pool_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

// ------------------------------------------------------------ oltp_point

class OltpPoint : public Workload {
 public:
  // Statement classes, interleaved over a fixed 40-statement cycle.
  enum Class { kPointSelect = 0, kInsert = 1, kExecute = 2 };
  static constexpr size_t kCycle = 40;
  static constexpr size_t kPeople = 20000;
  /// Rows one set-up's stream may INSERT.  The longest stream on one
  /// set-up is the traced run's (two closed-loop halves, then a replay
  /// that parses its INSERTs), about 14k INSERTs today; the budget is over
  /// four times that.  The stream ends when it is spent, so a faster engine
  /// cannot grow the table, the point-read working set or RSS past this.
  static constexpr size_t kInsertBudget = 1 << 16;

  std::vector<std::string> classes() const override {
    return {"point_select", "insert", "execute_psi"};
  }

  void Generate(uint64_t seed) override {
    seed_ = seed;
    mural::NameGenOptions people;
    people.seed = seed;
    people.num_bases = kPeople / 5;
    people.variants_per_base = 5;
    people.languages = kNameLanguages;
    people_ = mural::GenerateNames(people);
    lines_.reserve(people_.size());
    for (const mural::NameRecord& r : people_) {
      lines_.push_back({RowLine(static_cast<int32_t>(r.id), r.name)});
    }

    mural::NameGenOptions probes;
    probes.seed = seed ^ 0x9e0be5;
    probes.num_bases = 100;
    probes.variants_per_base = 5;
    probes.languages = kNameLanguages;
    probes_ = mural::GenerateNames(probes);
    probe_ph_ = PhonemesOf(probes_);
    Rng rng(seed ^ 0x01d);
    pool_ = BuildPsiPool(probes_, probe_ph_, /*corpus=*/70, /*unseen=*/30,
                         &rng);

    inserts_.reserve(kInsertBudget);
    for (size_t i = 0; i < kInsertBudget; ++i) {
      inserts_.push_back(FreshName(&rng));
    }
    hot_ids_ = SampleIndexes(kPeople, kPeople, &rng);  // Zipf rank -> id
    execute_order_ = SampleIndexes(pool_.size(), pool_.size(), &rng);
    zipf_ = std::make_unique<mural::ZipfGenerator>(kPeople, 0.99,
                                                   seed ^ 0x21bf);
  }

  Status Load(Database* db) override {
    MURAL_RETURN_IF_ERROR(CreateNamesTable(db, "people", people_));
    MURAL_RETURN_IF_ERROR(db->CreateIndex("people_id", "people", "id",
                                          mural::IndexKind::kBTree, false));
    MURAL_RETURN_IF_ERROR(db->Analyze("people"));
    MURAL_RETURN_IF_ERROR(CreateNamesTable(db, "probes", probes_));
    MURAL_RETURN_IF_ERROR(db->CreateIndex("probes_mtree", "probes", "name",
                                          mural::IndexKind::kMTree, true));
    return db->Analyze("probes");
  }

  std::vector<std::string> SessionStatements() const override {
    std::vector<std::string> out;
    for (size_t i = 0; i < pool_.size(); ++i) {
      out.push_back("PREPARE " + PreparedName(i) + " AS " +
                    PsiSql(pool_[i]));
    }
    return out;
  }

  size_t WarmupCount() const override { return 2 * kCycle * 25; }
  /// Segment p50 and p95 of these tens-of-microsecond statements differ
  /// by 20-50% between the set-ups of one run; eight segments average
  /// over more of them.
  int Segments() const override { return 8; }

  // Each set-up starts from a fresh `people` table, so its INSERTs
  // start over at id kPeople with a whole budget.
  void NewSetUp() override { inserted_ = 0; }

  Op Next() override {
    const size_t slot = next_++ % kCycle;
    if (slot == 20) {
      if (inserted_ == kInsertBudget) return Op{kInsert, "", "", nullptr};
      const int32_t id = static_cast<int32_t>(kPeople + inserted_);
      const UniText& name = inserts_[inserted_++];
      return Op{kInsert,
                "INSERT INTO people VALUES (" + std::to_string(id) + ", " +
                    Literal(name) + ")",
                "", &kInsertedOne};
    }
    if (slot % 10 == 5) {
      const size_t p = execute_order_[executed_++ % execute_order_.size()];
      return Op{kExecute, "EXECUTE " + PreparedName(p), PsiSql(pool_[p]),
                &pool_[p].expected};
    }
    const size_t id = hot_ids_[zipf_->Next()];
    std::string sql = PointSql(id);
    return Op{kPointSelect, sql, sql, &lines_[id]};
  }

  std::vector<std::pair<std::string, std::string>> Templates()
      const override {
    return {{"point_select", PointSql(hot_ids_[0])},
            {"execute_psi", PsiSql(pool_[0])}};
  }
  std::vector<std::string> PsiTemplates() const override {
    return {"execute_psi"};
  }

  LayerInputs Layers() const override {
    LayerInputs in;
    in.table = "people";
    in.unitext_column = "name";
    in.g2p_names.assign(inserts_.begin(), inserts_.begin() + 2000);
    for (const PsiProbe& p : pool_) in.probe_phonemes.push_back(p.phonemes);
    in.stored_phonemes = probe_ph_;
    in.btree_index = "people_id";
    mural::ZipfGenerator zipf(kPeople, 0.99, seed_ ^ 0x21bf);
    for (int i = 0; i < 4096; ++i) {
      in.btree_keys.push_back(static_cast<int32_t>(hot_ids_[zipf.Next()]));
    }
    return in;
  }

 private:
  static std::string PreparedName(size_t i) {
    return "q" + std::to_string(i);
  }
  static std::string PsiSql(const PsiProbe& p) {
    return "SELECT id, name FROM probes WHERE name LexEQUAL " +
           Literal(p.probe) + " THRESHOLD 2";
  }
  static std::string PointSql(size_t id) {
    return "SELECT id, name FROM people WHERE id = " + std::to_string(id);
  }

  inline static const std::vector<std::string> kInsertedOne = {"1"};

  uint64_t seed_ = 0;
  std::vector<mural::NameRecord> people_;
  std::vector<std::vector<std::string>> lines_;  // by id
  std::vector<mural::NameRecord> probes_;
  std::vector<std::string> probe_ph_;
  std::vector<PsiProbe> pool_;
  std::vector<UniText> inserts_;
  std::vector<size_t> hot_ids_;
  std::vector<size_t> execute_order_;
  std::unique_ptr<mural::ZipfGenerator> zipf_;
  size_t next_ = 0;
  size_t inserted_ = 0;
  size_t executed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "psi_scan") return std::make_unique<PsiScan>();
  if (name == "xling_join") return std::make_unique<XlingJoin>();
  if (name == "semequal_scan") return std::make_unique<SemequalScan>();
  if (name == "oltp_point") return std::make_unique<OltpPoint>();
  return nullptr;
}

}  // namespace murald_bench
