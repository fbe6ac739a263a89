#include "rewrite/vbin_codec.h"

#include <utility>

namespace vbr {

void EncodeExpansion(const Expansion& expansion, vbin::FileWriter* writer) {
  EncodeQuery(expansion.query, writer);
  writer->AppendVarint(expansion.origin.size());
  for (size_t o : expansion.origin) {
    writer->AppendVarint(o);
  }
}

bool DecodeExpansion(vbin::Reader* reader, const vbin::FileView& file,
                     Expansion* out) {
  if (!DecodeQuery(reader, file, &out->query)) return false;
  uint64_t count = 0;
  if (!reader->ReadVarint(&count)) return false;
  if (count > reader->remaining()) {
    reader->Fail("origin count exceeds remaining bytes");
    return false;
  }
  out->origin.clear();
  out->origin.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    if (!reader->ReadVarint(&value)) return false;
    out->origin.push_back(static_cast<size_t>(value));
  }
  return true;
}

void EncodeCertificate(const EquivalenceCertificate& certificate,
                       vbin::FileWriter* writer) {
  EncodeQuery(certificate.query, writer);
  EncodeQuery(certificate.rewriting, writer);
  EncodeExpansion(certificate.expansion, writer);
  EncodeSubstitution(certificate.query_to_expansion, writer);
  EncodeSubstitution(certificate.expansion_to_query, writer);
}

bool DecodeCertificate(vbin::Reader* reader, const vbin::FileView& file,
                       EquivalenceCertificate* out) {
  return DecodeQuery(reader, file, &out->query) &&
         DecodeQuery(reader, file, &out->rewriting) &&
         DecodeExpansion(reader, file, &out->expansion) &&
         DecodeSubstitution(reader, file, &out->query_to_expansion) &&
         DecodeSubstitution(reader, file, &out->expansion_to_query);
}

// Retired varint slots after total_ms (docs/FORMAT.md, kCacheSnapshot):
// written as 0 and skipped on read, so older snapshots, which hold nonzero
// values there, still load.
constexpr int kRetiredStatsSlots = 5;

void EncodeCoreCoverStats(const CoreCoverStats& stats,
                          vbin::FileWriter* writer) {
  writer->AppendVarint(stats.num_views);
  writer->AppendVarint(stats.num_view_classes);
  writer->AppendVarint(stats.num_view_tuples);
  writer->AppendVarint(stats.num_tuple_classes);
  writer->AppendVarint(stats.num_nonempty_cores);
  writer->AppendVarint(stats.minimum_cover_size);
  writer->AppendF64(stats.minimize_ms);
  writer->AppendF64(stats.view_tuple_ms);
  writer->AppendF64(stats.tuple_core_ms);
  writer->AppendF64(stats.cover_ms);
  writer->AppendF64(stats.total_ms);
  for (int i = 0; i < kRetiredStatsSlots; ++i) writer->AppendVarint(0);
  writer->AppendVarint(stats.work_used);
  writer->AppendBool(stats.hit_rewriting_cap);
}

bool DecodeCoreCoverStats(vbin::Reader* reader, CoreCoverStats* out) {
  auto size_field = [reader](size_t* field) {
    uint64_t value = 0;
    if (!reader->ReadVarint(&value)) return false;
    *field = static_cast<size_t>(value);
    return true;
  };
  auto skip_retired = [reader] {
    uint64_t unused = 0;
    for (int i = 0; i < kRetiredStatsSlots; ++i) {
      if (!reader->ReadVarint(&unused)) return false;
    }
    return true;
  };
  return size_field(&out->num_views) && size_field(&out->num_view_classes) &&
         size_field(&out->num_view_tuples) &&
         size_field(&out->num_tuple_classes) &&
         size_field(&out->num_nonempty_cores) &&
         size_field(&out->minimum_cover_size) &&
         reader->ReadF64(&out->minimize_ms) &&
         reader->ReadF64(&out->view_tuple_ms) &&
         reader->ReadF64(&out->tuple_core_ms) &&
         reader->ReadF64(&out->cover_ms) && reader->ReadF64(&out->total_ms) &&
         skip_retired() && reader->ReadVarint(&out->work_used) &&
         reader->ReadBool(&out->hit_rewriting_cap);
}

// ---------------------------------------------------------------------------
// Whole files

std::string EncodeCertificateFile(const EquivalenceCertificate& certificate) {
  vbin::FileWriter writer(vbin::FileKind::kCertificate);
  EncodeCertificate(certificate, &writer);
  return std::move(writer).Finish();
}

vbin::Status DecodeCertificateFile(std::string_view bytes,
                                   EquivalenceCertificate* out) {
  vbin::FileView file;
  vbin::Status status =
      vbin::OpenFile(bytes, &file, vbin::FileKind::kCertificate);
  if (!status.ok()) return status;
  vbin::Reader reader(file.body);
  if (!DecodeCertificate(&reader, file, out) || !reader.AtEnd()) {
    if (reader.ok()) reader.Fail("trailing bytes");
    return reader.ToStatus("certificate body");
  }
  return vbin::Status::Ok();
}

std::string EncodePlanFile(const PlanRecord& plan) {
  vbin::FileWriter writer(vbin::FileKind::kPlan);
  EncodeQuery(plan.rewriting, &writer);
  EncodeAtoms(plan.filter_atoms, &writer);
  return std::move(writer).Finish();
}

vbin::Status DecodePlanFile(std::string_view bytes, PlanRecord* out) {
  vbin::FileView file;
  vbin::Status status = vbin::OpenFile(bytes, &file, vbin::FileKind::kPlan);
  if (!status.ok()) return status;
  vbin::Reader reader(file.body);
  if (!DecodeQuery(&reader, file, &out->rewriting) ||
      !DecodeAtoms(&reader, file, &out->filter_atoms) || !reader.AtEnd()) {
    if (reader.ok()) reader.Fail("trailing bytes");
    return reader.ToStatus("plan body");
  }
  return vbin::Status::Ok();
}

}  // namespace vbr
