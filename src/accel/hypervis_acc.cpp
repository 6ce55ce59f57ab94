#include "accel/hypervis_acc.hpp"

#include <vector>

#include "accel/pipeline.hpp"
#include "accel/tile_math.hpp"
#include "homme/state.hpp"
#include "sw/task.hpp"

namespace accel {

using homme::fidx;

namespace {

/// Apply the kernel's operator to one level tile in place.
void hv_tile(HvKernel which, const double* dvv, const double* geom,
             double* field, double nu_dt, sw::Cpe* cpe, bool vec) {
  const double* jac = geom + kJac * kNpp;
  const double* gi11 = geom + kGinv11 * kNpp;
  const double* gi12 = geom + kGinv12 * kNpp;
  const double* gi22 = geom + kGinv22 * kNpp;
  double lap[kNpp];
  tile_laplace(dvv, jac, gi11, gi12, gi22, field, lap, cpe, vec);
  if (which == HvKernel::kDp1) {
    for (int k = 0; k < kNpp; ++k) field[k] += nu_dt * lap[k];
    charge(cpe, vec, kNpp * 2);
    return;
  }
  double lap2[kNpp];
  tile_laplace(dvv, jac, gi11, gi12, gi22, lap, lap2, cpe, vec);
  for (int k = 0; k < kNpp; ++k) field[k] -= nu_dt * lap2[k];
  charge(cpe, vec, kNpp * 2);
}

/// The field pointers this kernel touches.
std::vector<double*> hv_fields(PackedElems& p, HvKernel which) {
  if (which == HvKernel::kBiharmDp3d) return {p.dp.data()};
  return {p.u1.data(), p.u2.data(), p.T.data()};
}

}  // namespace

void hypervis_ref(PackedElems& p, HvKernel which,
                  const HypervisAccConfig& cfg) {
  for (double* base : hv_fields(p, which)) {
    for (int e = 0; e < p.nelem; ++e) {
      const std::size_t eo = p.elem_offset(e);
      for (int lev = 0; lev < p.nlev; ++lev) {
        hv_tile(which, p.dvv.data(), p.geom_of(e), base + eo + fidx(lev, 0),
                cfg.nu_dt, nullptr, false);
      }
    }
  }
}

sw::KernelStats hypervis_openacc(sw::CoreGroup& cg, PackedElems& p,
                                 HvKernel which,
                                 const HypervisAccConfig& cfg) {
  auto fields = hv_fields(p, which);
  const int iters = p.nelem * p.nlev;
  auto kernel = [&](sw::Cpe& cpe) -> sw::Task {
    for (std::size_t f = 0; f < fields.size(); ++f) {
      // One parallel region per field; collapse(e, lev) iterations.
      for (int it = cpe.id(); it < iters; it += sw::kCpesPerGroup) {
        const int e = it / p.nlev;
        const int lev = it % p.nlev;
        sw::LdmFrame frame(cpe.ldm());
        // The directive port re-stages the 4 metric tiles it references
        // for every single level iteration.
        auto geom = cpe.ldm().alloc<double>(4 * kNpp);
        cpe.get(geom.subspan(0, kNpp), p.geom_of(e) + kJac * kNpp);
        cpe.get(geom.subspan(kNpp, kNpp), p.geom_of(e) + kGinv11 * kNpp);
        cpe.get(geom.subspan(2 * kNpp, kNpp), p.geom_of(e) + kGinv12 * kNpp);
        cpe.get(geom.subspan(3 * kNpp, kNpp), p.geom_of(e) + kGinv22 * kNpp);
        auto tile = cpe.ldm().alloc<double>(kNpp);
        const std::size_t off = p.elem_offset(e) + fidx(lev, 0);
        cpe.get(tile, fields[f] + off);
        // Rebuild a 23-tile view with the 4 staged tiles at the right
        // offsets (only those four are read by hv_tile).
        double geom_view[kGeomDoubles];
        std::copy(geom.begin(), geom.begin() + kNpp, geom_view + kJac * kNpp);
        std::copy(geom.begin() + kNpp, geom.begin() + 2 * kNpp,
                  geom_view + kGinv11 * kNpp);
        std::copy(geom.begin() + 2 * kNpp, geom.begin() + 3 * kNpp,
                  geom_view + kGinv12 * kNpp);
        std::copy(geom.begin() + 3 * kNpp, geom.begin() + 4 * kNpp,
                  geom_view + kGinv22 * kNpp);
        hv_tile(which, p.dvv.data(), geom_view, tile.data(), cfg.nu_dt, &cpe,
                /*vectorized=*/false);
        cpe.put(fields[f] + off, std::span<const double>(tile));
        co_await cpe.yield();
      }
    }
  };
  return cg.run(kernel, sw::kCpesPerGroup,
                static_cast<double>(fields.size()) * sw::kSpawnCycles);
}

std::string_view HypervisKernel::name() const {
  switch (which_) {
    case HvKernel::kDp1:
      return "hypervis_dp1";
    case HvKernel::kDp2:
      return "hypervis_dp2";
    case HvKernel::kBiharmDp3d:
      return "biharmonic_dp3d";
  }
  return "hypervis";
}

std::vector<FieldId> HypervisKernel::field_ids() const {
  if (which_ == HvKernel::kBiharmDp3d) return {FieldId::kDp};
  return {FieldId::kU1, FieldId::kU2, FieldId::kT};
}

void HypervisKernel::bind(Workset& ws) const {
  ws.items(p_.nelem, p_.nlev);
  ws.dvv = p_.dvv.data();
  const std::size_t fs = p_.field_size();
  const std::size_t geom = static_cast<std::size_t>(kGeomDoubles);
  ws.bind({FieldId::kGeom, p_.geom.data(), geom, geom, 1, 0, false});
  if (which_ == HvKernel::kBiharmDp3d) {
    ws.bind({FieldId::kDp, p_.dp.data(), fs, fs, 1, 0, true});
  } else {
    ws.bind({FieldId::kU1, p_.u1.data(), fs, fs, 1, 0, true});
    ws.bind({FieldId::kU2, p_.u2.data(), fs, fs, 1, 0, true});
    ws.bind({FieldId::kT, p_.T.data(), fs, fs, 1, 0, true});
  }
}

std::vector<FieldUse> HypervisKernel::footprint() const {
  std::vector<FieldUse> uses = {{FieldId::kGeom, Access::kRead, /*keep=*/true}};
  for (FieldId f : field_ids()) {
    uses.push_back({f, Access::kReadWrite, /*keep=*/true});
  }
  return uses;
}

std::size_t HypervisKernel::transient_bytes(const Workset& ws,
                                            const KeepSet& keep) const {
  std::size_t bytes = 128;  // slop for lease alignment
  bool field_missing = false;
  for (FieldId f : field_ids()) {
    if (!keep.has(f)) field_missing = true;
  }
  if (field_missing) {
    bytes += ws.at(field_ids().front()).extent * sizeof(double) + 32;
  }
  if (!keep.has(FieldId::kGeom)) bytes += 4u * kNpp * sizeof(double) + 32;
  return bytes;
}

void HypervisKernel::element(sw::Cpe& cpe, ElemCtx& ctx) const {
  const auto dvv = ctx.dvv();
  // The leading four packed tiles are exactly the ones hv_tile indexes
  // (kJac..kGinv22), so the prefix lease doubles as its geometry base.
  FieldLease geom =
      ctx.lease(FieldId::kGeom, 0, 0, 4u * kNpp, Access::kRead);
  const std::size_t fs = p_.field_size();
  for (FieldId f : field_ids()) {
    FieldLease fld = ctx.lease(f, 0, 0, fs, Access::kReadWrite);
    for (int lev = 0; lev < p_.nlev; ++lev) {
      hv_tile(which_, dvv.data(), geom.data(), fld.data() + fidx(lev, 0),
              cfg_.nu_dt, &cpe, /*vectorized=*/true);
    }
    fld.flush();
  }
}

}  // namespace accel
