(* The Codec probe of a traced run: the construction-local work of one
   operation once [n * k] operations have been applied, measured through
   the public Codec API — decode the root record, absorb one new
   descriptor, and union two descriptor sets of half the history each. *)

open Lb_memory
open Lb_universal.Codec

type t = { entries : int; decode_us : float; absorb_us : float; union_us : float }

(* Per-call time: the median of five 1 ms batches of back-to-back calls. *)
let per_call_us f =
  let batch () =
    let t0 = Common.now () and calls = ref 0 in
    while Common.now () -. t0 < 0.001 do
      ignore (Sys.opaque_identity (f ()));
      incr calls
    done;
    (Common.now () -. t0) /. float_of_int !calls
  in
  1e6 *. Common.median (List.init 5 (fun _ -> batch ()))

let probe ~(spec : Lb_objects.Spec.t) ~n ~k =
  let desc pid seq = { Desc.pid; seq; op = Value.Unit } in
  let descs = List.concat (List.init k (fun seq -> List.init n (fun pid -> desc pid seq))) in
  let root = Root.absorb spec (Root.decode (Root.initial spec.Lb_objects.Spec.init)) descs in
  let encoded = Root.encode root in
  let half p =
    List.fold_left Dset.add Dset.empty (List.filter (fun d -> d.Desc.pid mod 2 = p) descs)
  in
  let a = half 0 and b = half 1 in
  let decode_us = per_call_us (fun () -> Root.decode encoded) in
  let absorb_us = per_call_us (fun () -> Root.absorb spec root [ desc 0 k ]) in
  let union_us = per_call_us (fun () -> Dset.union a b) in
  { entries = List.length root.Root.responses; decode_us; absorb_us; union_us }

let set (p : t) layers =
  Layers.(
    layers
    |> set "codec.root_entries" (float_of_int p.entries)
    |> set "codec.root_decode_us" p.decode_us
    |> set "codec.root_absorb_us" p.absorb_us
    |> set "codec.dset_union_us" p.union_us)
