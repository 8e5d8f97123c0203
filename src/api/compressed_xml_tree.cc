#include "src/api/compressed_xml_tree.h"

#include <utility>

#include "src/grammar/binary_format.h"
#include "src/grammar/validate.h"
#include "src/obs/trace.h"
#include "src/update/batch.h"
#include "src/xml/xml_parser.h"

namespace slg {

StatusOr<CompressedXmlTree> CompressedXmlTree::FromXml(
    std::string_view xml, const CompressOptions& compress,
    const UpdateOptions& update) {
  obs::TraceSpan span("api.from_xml");
  StatusOr<std::shared_ptr<const GrammarSnapshot>> snap =
      CompressXmlToSnapshot(xml, compress);
  if (!snap.ok()) return snap.status();
  return CompressedXmlTree(snap.take(), update);
}

StatusOr<CompressedXmlTree> CompressedXmlTree::FromGrammar(
    Grammar g, const UpdateOptions& update) {
  SLG_RETURN_IF_ERROR(Validate(g));
  return CompressedXmlTree(GrammarSnapshot::Make(std::move(g)), update);
}

StatusOr<CompressedXmlTree> CompressedXmlTree::FromSnapshot(
    std::shared_ptr<const GrammarSnapshot> snapshot,
    const UpdateOptions& update) {
  if (snapshot == nullptr) return Status::InvalidArgument("null snapshot");
  return CompressedXmlTree(std::move(snapshot), update);
}

Status CompressedXmlTree::Rename(int64_t preorder, std::string_view new_tag) {
  // Clone-modify-swap: the update runs on a private clone, so any
  // failure discards the clone and the published snapshot — and with
  // it Serialize(), the damage set, the counter — is untouched.
  Grammar next = snap_->grammar().Clone();
  std::vector<LabelId> damage;
  {
    BatchUpdater batch(&next);
    SLG_RETURN_IF_ERROR(batch.Rename(preorder, new_tag));
    damage = batch.DamagedRules();
    batch.Finish();
  }
  NoteDamage(damage);
  snap_ = GrammarSnapshot::Make(std::move(next), snap_->version() + 1);
  ++updates_since_recompress_;
  MaybeAutoRecompress();
  return Status::Ok();
}

Status CompressedXmlTree::InsertXmlBefore(int64_t preorder,
                                          std::string_view xml_fragment) {
  StatusOr<XmlTree> parsed = ParseXml(xml_fragment);
  if (!parsed.ok()) return parsed.status();
  Grammar next = snap_->grammar().Clone();
  // The fragment's labels are interned into the clone's table; on
  // failure the clone is dropped, table extension included.
  StatusOr<Tree> frag = EncodeFragment(parsed.value(), &next);
  if (!frag.ok()) return frag.status();
  std::vector<LabelId> damage;
  {
    BatchUpdater batch(&next);
    SLG_RETURN_IF_ERROR(batch.InsertBefore(preorder, frag.value()));
    damage = batch.DamagedRules();
    batch.Finish();
  }
  NoteDamage(damage);
  snap_ = GrammarSnapshot::Make(std::move(next), snap_->version() + 1);
  ++updates_since_recompress_;
  MaybeAutoRecompress();
  return Status::Ok();
}

Status CompressedXmlTree::Delete(int64_t preorder) {
  Grammar next = snap_->grammar().Clone();
  std::vector<LabelId> damage;
  {
    BatchUpdater batch(&next);
    SLG_RETURN_IF_ERROR(batch.Delete(preorder));
    damage = batch.DamagedRules();
    batch.Finish();  // drops the snapshot, then garbage-collects
  }
  NoteDamage(damage);
  snap_ = GrammarSnapshot::Make(std::move(next), snap_->version() + 1);
  ++updates_since_recompress_;
  MaybeAutoRecompress();
  return Status::Ok();
}

void CompressedXmlTree::Recompress() {
  // The damage accumulated since the last recompression: the start
  // rule (every update isolates its path there) plus the rules whose
  // bodies those isolations inlined — without the frontier the copies
  // in the start rule could never be folded back (see
  // BatchUpdater::DamagedRules).
  std::vector<LabelId> damage = std::move(pending_damage_);
  pending_damage_.clear();
  pending_damage_seen_.clear();
  GrammarRepairResult r =
      RecompressDamaged(snap_->grammar().Clone(), damage, options_);
  snap_ = GrammarSnapshot::Make(std::move(r.grammar), snap_->version() + 1);
  updates_since_recompress_ = 0;
}

void CompressedXmlTree::NoteDamage(const std::vector<LabelId>& rules) {
  for (LabelId r : rules) {
    if (pending_damage_seen_.insert(r).second) pending_damage_.push_back(r);
  }
}

void CompressedXmlTree::MaybeAutoRecompress() {
  if (options_.auto_recompress_every > 0 &&
      updates_since_recompress_ >= options_.auto_recompress_every) {
    Recompress();
  }
}

std::string CompressedXmlTree::Serialize() const {
  return SerializeGrammar(snap_->grammar());
}

StatusOr<CompressedXmlTree> CompressedXmlTree::Deserialize(
    std::string_view bytes, const UpdateOptions& update) {
  StatusOr<Grammar> g = DeserializeGrammar(bytes);
  if (!g.ok()) return g.status();
  return CompressedXmlTree(GrammarSnapshot::Make(g.take()), update);
}

}  // namespace slg
