#include "catalog/tuple_codec.h"

#include "common/coding.h"

namespace mural {

namespace {

Status CheckType(const Column& col, const Value& v) {
  if (v.is_null()) return Status::OK();
  if (v.type() != col.type) {
    return Status::InvalidArgument(
        "column '" + col.name + "' expects " + TypeIdToString(col.type) +
        " but row has " + TypeIdToString(v.type()));
  }
  return Status::OK();
}

}  // namespace

Status TupleCodec::Serialize(const Schema& schema, const Row& row,
                             std::string* out) {
  if (row.size() != schema.NumColumns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  out->clear();
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.column(i);
    const Value& v = row[i];
    MURAL_RETURN_IF_ERROR(CheckType(col, v));
    if (v.is_null()) {
      PutU8(out, 0);
      continue;
    }
    PutU8(out, 1);
    switch (col.type) {
      case TypeId::kBool:
        PutU8(out, v.bool_val() ? 1 : 0);
        break;
      case TypeId::kInt32:
        PutU32(out, static_cast<uint32_t>(v.int32()));
        break;
      case TypeId::kInt64:
        PutU64(out, static_cast<uint64_t>(v.int64()));
        break;
      case TypeId::kFloat64:
        PutF64(out, v.float64());
        break;
      case TypeId::kText:
        PutLengthPrefixed(out, v.text());
        break;
      case TypeId::kUniText: {
        const UniText& u = v.unitext();
        PutLengthPrefixed(out, u.text());
        PutU16(out, u.lang());
        if (u.has_phonemes()) {
          PutU8(out, 1);
          PutLengthPrefixed(out, *u.phonemes());
        } else {
          PutU8(out, 0);
        }
        break;
      }
      case TypeId::kNull:
        return Status::InvalidArgument("column of type NULL is not storable");
    }
  }
  return Status::OK();
}

Status TupleCodec::Deserialize(const Schema& schema, std::string_view data,
                               Row* out) {
  out->clear();
  out->reserve(schema.NumColumns());
  Decoder dec(data);
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    if (dec.U8() == 0) {
      out->push_back(Value::Null());
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kBool:
        out->push_back(Value::Bool(dec.U8() != 0));
        break;
      case TypeId::kInt32:
        out->push_back(Value::Int32(static_cast<int32_t>(dec.U32())));
        break;
      case TypeId::kInt64:
        out->push_back(Value::Int64(static_cast<int64_t>(dec.U64())));
        break;
      case TypeId::kFloat64:
        out->push_back(Value::Float64(dec.F64()));
        break;
      case TypeId::kText:
        out->push_back(Value::Text(std::string(dec.LengthPrefixed())));
        break;
      case TypeId::kUniText: {
        std::string text(dec.LengthPrefixed());
        UniText u(std::move(text), dec.U16());
        if (dec.U8() != 0) u.set_phonemes(std::string(dec.LengthPrefixed()));
        out->push_back(Value::Uni(std::move(u)));
        break;
      }
      case TypeId::kNull:
        return Status::Corruption("column of type NULL in schema");
    }
  }
  MURAL_RETURN_IF_ERROR(dec.status());
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return Status::OK();
}

Status TupleCodec::PeekUniText(const Schema& schema, std::string_view data,
                               size_t col, UniTextColumnView* view) {
  if (col >= schema.NumColumns()) {
    return Status::InvalidArgument("PeekUniText: column out of range");
  }
  const TypeId want = schema.column(col).type;
  if (want != TypeId::kUniText && want != TypeId::kText) {
    return Status::InvalidArgument("PeekUniText: column is not (uni)text");
  }
  Decoder dec(data);
  for (size_t i = 0; i < col; ++i) {
    if (dec.U8() == 0) continue;
    switch (schema.column(i).type) {
      case TypeId::kBool:
        dec.Skip(1);
        break;
      case TypeId::kInt32:
        dec.Skip(4);
        break;
      case TypeId::kInt64:
      case TypeId::kFloat64:
        dec.Skip(8);
        break;
      case TypeId::kText:
        dec.Skip(dec.U32());
        break;
      case TypeId::kUniText:
        dec.Skip(size_t{dec.U32()} + 2);  // text + lang
        if (dec.U8() != 0) dec.Skip(dec.U32());
        break;
      case TypeId::kNull:
        return Status::Corruption("column of type NULL in schema");
    }
  }
  *view = UniTextColumnView();
  if (dec.U8() == 0) {
    view->is_null = true;
  } else {
    view->text = dec.LengthPrefixed();
    if (want == TypeId::kUniText) {
      view->lang = dec.U16();
      view->has_phonemes = dec.U8() != 0;
      if (view->has_phonemes) view->phonemes = dec.LengthPrefixed();
    }
  }
  return dec.status();
}

size_t TupleCodec::SerializedSize(const Schema& schema, const Row& row) {
  size_t total = 0;
  for (size_t i = 0; i < row.size() && i < schema.NumColumns(); ++i) {
    const Value& v = row[i];
    total += 1;  // flag
    if (v.is_null()) continue;
    switch (schema.column(i).type) {
      case TypeId::kBool:
        total += 1;
        break;
      case TypeId::kInt32:
        total += 4;
        break;
      case TypeId::kInt64:
      case TypeId::kFloat64:
        total += 8;
        break;
      case TypeId::kText:
        total += 4 + v.text().size();
        break;
      case TypeId::kUniText: {
        const UniText& u = v.unitext();
        total += 4 + u.text().size() + 2 + 1;
        if (u.has_phonemes()) total += 4 + u.phonemes()->size();
        break;
      }
      case TypeId::kNull:
        break;
    }
  }
  return total;
}

}  // namespace mural
