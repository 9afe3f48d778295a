#include "plfront/udf_runtime.h"

#include "common/coding.h"

namespace mural {
namespace pl {

const char* StockUdfLibrarySource() {
  return R"PL(
-- Levenshtein edit distance between two phoneme strings, full dynamic
-- program with a per-row cut-off at threshold k.  This is the UDF form of
-- the paper's Figure-3 matching step.
FUNCTION EDITDIST(a TEXT, b TEXT, k INT) RETURNS INT AS
  m INT := LENGTH(a);
  n INT := LENGTH(b);
  prev ARRAY;
  cur ARRAY;
  i INT;
  j INT;
  cost INT;
  best INT;
BEGIN
  IF m - n > k OR n - m > k THEN
    RETURN k + 1;
  END IF;
  IF m = 0 THEN RETURN n; END IF;
  IF n = 0 THEN RETURN m; END IF;
  prev := ARRAY(n + 1, 0);
  cur := ARRAY(n + 1, 0);
  j := 0;
  WHILE j <= n LOOP
    prev[j] := j;
    j := j + 1;
  END LOOP;
  i := 1;
  WHILE i <= m LOOP
    cur[0] := i;
    best := i;
    j := 1;
    WHILE j <= n LOOP
      IF CODE(a, i) = CODE(b, j) THEN
        cost := 0;
      ELSE
        cost := 1;
      END IF;
      cur[j] := MIN(MIN(prev[j] + 1, cur[j - 1] + 1), prev[j - 1] + cost);
      IF cur[j] < best THEN
        best := cur[j];
      END IF;
      j := j + 1;
    END LOOP;
    IF best > k THEN
      RETURN k + 1;
    END IF;
    j := 0;
    WHILE j <= n LOOP
      prev[j] := cur[j];
      j := j + 1;
    END LOOP;
    i := i + 1;
  END LOOP;
  IF prev[n] <= k THEN
    RETURN prev[n];
  END IF;
  RETURN k + 1;
END;

-- Boolean LexEQUAL form.
FUNCTION LEXMATCH(a TEXT, b TEXT, k INT) RETURNS BOOL AS
BEGIN
  IF EDITDIST(a, b, k) <= k THEN
    RETURN TRUE;
  END IF;
  RETURN FALSE;
END;

-- Transitive closure of the synsets named by (lemma, lang), expanded
-- iteratively through SQL_CHILDREN / SQL_EQUIVALENTS host statements and
-- tracked in a TEMPSET (the temp table + index of a PL/SQL version).
-- Returns the tempset handle; caller frees it.
FUNCTION TCLOSURE(lemma TEXT, lang INT, follow INT) RETURNS INT AS
  visited INT;
  stack ARRAY;
  roots ARRAY;
  kids ARRAY;
  i INT;
  node INT;
BEGIN
  visited := TEMPSET_NEW();
  stack := ARRAY(0);
  roots := SQL_LOOKUP(lemma, lang);
  i := 0;
  WHILE i < LENGTH(roots) LOOP
    IF TEMPSET_ADD(visited, roots[i]) THEN
      APPEND(stack, roots[i]);
    END IF;
    i := i + 1;
  END LOOP;
  WHILE LENGTH(stack) > 0 LOOP
    node := POP(stack);
    kids := SQL_CHILDREN(node);
    i := 0;
    WHILE i < LENGTH(kids) LOOP
      IF TEMPSET_ADD(visited, kids[i]) THEN
        APPEND(stack, kids[i]);
      END IF;
      i := i + 1;
    END LOOP;
    IF follow = 1 THEN
      kids := SQL_EQUIVALENTS(node);
      i := 0;
      WHILE i < LENGTH(kids) LOOP
        IF TEMPSET_ADD(visited, kids[i]) THEN
          APPEND(stack, kids[i]);
        END IF;
        i := i + 1;
      END LOOP;
    END IF;
  END LOOP;
  RETURN visited;
END;

-- Size of the closure of (lemma, lang).
FUNCTION CLOSURE_SIZE(lemma TEXT, lang INT, follow INT) RETURNS INT AS
  h INT;
  n INT;
BEGIN
  h := TCLOSURE(lemma, lang, follow);
  n := TEMPSET_SIZE(h);
  TEMPSET_FREE(h);
  RETURN n;
END;

-- SemEQUAL: is some sense of (llemma, llang) inside the closure of
-- (rlemma, rlang)?
FUNCTION SEM_MATCH(llemma TEXT, llang INT, rlemma TEXT, rlang INT)
RETURNS BOOL AS
  h INT;
  ids ARRAY;
  i INT;
  found BOOL := FALSE;
BEGIN
  ids := SQL_LOOKUP(llemma, llang);
  IF LENGTH(ids) = 0 THEN
    RETURN FALSE;
  END IF;
  h := TCLOSURE(rlemma, rlang, 1);
  i := 0;
  WHILE i < LENGTH(ids) LOOP
    IF TEMPSET_CONTAINS(h, ids[i]) THEN
      found := TRUE;
    END IF;
    i := i + 1;
  END LOOP;
  TEMPSET_FREE(h);
  RETURN found;
END;
)PL";
}

StatusOr<std::unique_ptr<UdfRuntime>> UdfRuntime::Create() {
  MURAL_ASSIGN_OR_RETURN(FunctionLibrary lib,
                         ParseProgram(StockUdfLibrarySource()));
  auto interp = std::make_unique<Interpreter>(std::move(lib));
  return std::unique_ptr<UdfRuntime>(new UdfRuntime(std::move(interp)));
}

std::string UdfRuntime::SerializeArgs(const std::vector<PlValue>& args) {
  std::string wire;
  PutU32(&wire, static_cast<uint32_t>(args.size()));
  for (const PlValue& v : args) {
    if (v.is_null()) {
      PutU8(&wire, 0);
    } else if (v.is_bool()) {
      PutU8(&wire, 1);
      PutU8(&wire, v.AsBool() ? 1 : 0);
    } else if (v.is_int()) {
      PutU8(&wire, 2);
      PutU64(&wire, static_cast<uint64_t>(v.AsInt()));
    } else if (v.is_double()) {
      PutU8(&wire, 3);
      PutF64(&wire, v.AsDouble());
    } else if (v.is_string()) {
      PutU8(&wire, 4);
      PutLengthPrefixed(&wire, v.AsString());
    } else {
      // Arrays do not cross the wire (like PL/SQL collection params in
      // remote calls): encode as null.
      PutU8(&wire, 0);
    }
  }
  return wire;
}

StatusOr<std::vector<PlValue>> UdfRuntime::DeserializeArgs(
    std::string_view wire) {
  Decoder dec(wire);
  const uint32_t count = dec.U32();
  MURAL_RETURN_IF_ERROR(dec.status());
  // Every argument needs at least its one-byte tag, so a count larger
  // than the remaining payload is corrupt — reject before reserving
  // (a garbage count must not drive allocation).
  if (count > dec.remaining()) {
    return Status::Corruption("wire argument count exceeds payload");
  }
  std::vector<PlValue> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    switch (dec.U8()) {
      case 0:
        out.emplace_back();
        break;
      case 1:
        out.emplace_back(dec.U8() != 0);
        break;
      case 2:
        out.emplace_back(static_cast<int64_t>(dec.U64()));
        break;
      case 3:
        out.emplace_back(dec.F64());
        break;
      case 4:
        out.emplace_back(std::string(dec.LengthPrefixed()));
        break;
      default:
        return Status::Corruption("bad wire tag");
    }
  }
  MURAL_RETURN_IF_ERROR(dec.status());
  return out;
}

StatusOr<PlValue> UdfRuntime::CallWire(const std::string& function,
                                       const std::vector<PlValue>& args) {
  ++stats_.calls;
  // Outbound: serialize, copy, deserialize — the process-boundary copies
  // a UDF in a separate execution space pays (paper §5.3: "overheads due
  // to the UDF invocations and execution in a separate process space").
  const std::string wire = SerializeArgs(args);
  stats_.wire_bytes += wire.size();
  MURAL_ASSIGN_OR_RETURN(const std::vector<PlValue> received,
                         DeserializeArgs(wire));
  MURAL_ASSIGN_OR_RETURN(PlValue result,
                         interpreter_->Call(function, received));
  // Inbound: result crosses back.
  const std::string back = SerializeArgs({result});
  stats_.wire_bytes += back.size();
  MURAL_ASSIGN_OR_RETURN(std::vector<PlValue> round,
                         DeserializeArgs(back));
  return round.empty() ? PlValue() : round[0];
}

}  // namespace pl
}  // namespace mural
