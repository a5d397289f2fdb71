open Lb_memory

module Regs = Map.Make (Int)

type t = {
  default : Value.t;
  model : Memory_model.t;
  regs : (Value.t * Ids.t) Regs.t;
  buffers : Store_buffer.t; (* empty and untouched under SC *)
}

let create ?(default = Value.Unit) ?(model = Memory_model.SC) ~inits () =
  {
    default;
    model;
    regs =
      List.fold_left (fun regs (r, v) -> Regs.add r (v, Ids.empty) regs) Regs.empty inits;
    buffers = Store_buffer.empty;
  }

let model t = t.model

let state t r =
  if r < 0 then invalid_arg (Printf.sprintf "Pure_memory: negative register index %d" r);
  Option.value ~default:(t.default, Ids.empty) (Regs.find_opt r t.regs)

let peek t r = fst (state t r)
let pset t r = snd (state t r)

let set t r st = { t with regs = Regs.add r st t.regs }

(* ---- store buffers (TSO / PSO): the rules live in [Store_buffer] ---- *)

(* A flushed (or immediate) store: value lands, Pset clears. *)
let apply_store t (r, v) = set t r (v, Ids.empty)

let drain t ~pid =
  match Store_buffer.drain t.buffers ~pid with
  | [], _ -> t
  | entries, buffers -> List.fold_left apply_store { t with buffers } entries

let drain_all t =
  let drained = Store_buffer.buffers t.buffers in
  let t =
    List.fold_left
      (fun t (_, entries) -> List.fold_left apply_store t entries)
      { t with buffers = Store_buffer.empty }
      drained
  in
  (drained, t)

let flushable t = Store_buffer.flushable t.model t.buffers

let flush t ~pid ~reg =
  match Store_buffer.take t.model t.buffers ~pid ~reg with
  | Ok (v, buffers) -> apply_store { t with buffers } (reg, v)
  | Error reason -> invalid_arg ("Pure_memory.flush: " ^ reason)

let buffers t = Store_buffer.buffers t.buffers
let buffered_regs t ~pid = Store_buffer.buffered_regs t.buffers ~pid

let canonical t =
  Regs.bindings t.regs
  |> List.filter (fun (_, (v, ps)) -> not (v = t.default && Ids.is_empty ps))

(* Canonical state must distinguish a buffered-but-unflushed write from both
   "no write" and "write visible": two states that agree on shared registers
   but differ in a buffer diverge once the buffer flushes, so collapsing
   them (as [canonical] alone would) makes dedup unsound under TSO/PSO. *)
let canonical_full t = (canonical t, buffers t)

let apply t ~pid inv =
  (match inv with
  | Op.Move (src, dst) when src = dst -> raise (Memory.Self_move { pid; reg = src })
  | _ -> ());
  let relaxed = Memory_model.relaxed t.model in
  let t = if relaxed && Store_buffer.fences inv then drain t ~pid else t in
  match inv with
  | Op.Ll r ->
    let v, ps = state t r in
    (Op.Value v, set t r (v, Ids.add pid ps))
  | Op.Sc (r, nv) ->
    let v, ps = state t r in
    if Ids.mem pid ps then (Op.Flagged (true, v), set t r (nv, Ids.empty))
    else (Op.Flagged (false, v), t)
  | Op.Validate r ->
    let v, ps = state t r in
    let v =
      if relaxed then Option.value ~default:v (Store_buffer.forwarded t.buffers ~pid r) else v
    in
    (Op.Flagged (Ids.mem pid ps, v), t)
  | Op.Swap (r, nv) ->
    let v, _ = state t r in
    (Op.Value v, set t r (nv, Ids.empty))
  | Op.Move (src, dst) ->
    let v, _ = state t src in
    (Op.Ack, set t dst (v, Ids.empty))
  | Op.Write (r, v) ->
    if relaxed then (Op.Ack, { t with buffers = Store_buffer.push t.buffers ~pid r v })
    else (Op.Ack, apply_store t (r, v))
  | Op.Fence -> (Op.Ack, t)
