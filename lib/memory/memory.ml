type event = { pid : int; invocation : Op.invocation; response : Op.response }

exception Self_move of { pid : int; reg : int }

let () =
  Printexc.register_printer (function
    | Self_move { pid; reg } ->
      Some
        (Printf.sprintf
           "Memory.Self_move: p%d issued move(R%d, R%d) — self-moves are excluded from the model"
           pid reg reg)
    | _ -> None)

type directive = Proceed | Fail_sc

type interposer = pid:int -> Op.invocation -> directive

type tap = pid:int -> Op.invocation -> Op.response -> spurious:bool -> unit

(* Registers are allocated densely from 0 by [Layout], and per-process
   shared-access counts are indexed by pids 0 .. n-1 — so both live in flat
   growable arrays (a single bounds check and load on the hot path, no
   hashing, no probe-then-store double lookup).  Register indices at or
   above [dense_regs_limit] — legal but unheard of in practice — spill into
   a hashtable so the arrays stay proportional to the registers actually
   used. *)
let dense_regs_limit = 1 lsl 20

type t = {
  mutable regs : Register.t option array; (* index = register, < dense_regs_limit *)
  sparse_regs : (int, Register.t) Hashtbl.t; (* registers >= dense_regs_limit *)
  default : Value.t;
  mutable counts : int array; (* index = pid; length grows by doubling *)
  mutable total : int;
  log_enabled : bool;
  mutable log : event list; (* newest first *)
  mutable interposer : interposer option;
  mutable tap : tap option;
  model : Memory_model.t;
  mutable buffers : Store_buffer.t; (* empty and untouched under SC *)
}

let create ?(default = Value.Unit) ?(log = false) ?(model = Memory_model.SC) () =
  {
    regs = Array.make 64 None;
    sparse_regs = Hashtbl.create 4;
    default;
    counts = Array.make 16 0;
    total = 0;
    log_enabled = log;
    log = [];
    interposer = None;
    tap = None;
    model;
    buffers = Store_buffer.empty;
  }

let model m = m.model

let set_interposer m i = m.interposer <- i
let set_tap m tap = m.tap <- tap

let grow_to_hold a len ~default =
  let n = max 1 (Array.length a) in
  let n = ref n in
  while !n <= len do
    n := 2 * !n
  done;
  let a' = Array.make !n default in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let register m r =
  if r < 0 then invalid_arg (Printf.sprintf "Memory: negative register index %d" r);
  if r < dense_regs_limit then begin
    if r >= Array.length m.regs then m.regs <- grow_to_hold m.regs r ~default:None;
    match Array.unsafe_get m.regs r with
    | Some reg -> reg
    | None ->
      let reg = Register.create m.default in
      Array.unsafe_set m.regs r (Some reg);
      reg
  end
  else
    match Hashtbl.find_opt m.sparse_regs r with
    | Some reg -> reg
    | None ->
      let reg = Register.create m.default in
      Hashtbl.add m.sparse_regs r reg;
      reg

let set_init m r v = Register.write (register m r) v

(* ---- store buffers (TSO / PSO): the rules live in [Store_buffer] ---- *)

let apply_store m (r, v) = Register.write (register m r) v

let drain m ~pid =
  let entries, rest = Store_buffer.drain m.buffers ~pid in
  List.iter (apply_store m) entries;
  m.buffers <- rest

let drain_all m =
  List.iter
    (fun (_, entries) -> List.iter (apply_store m) entries)
    (Store_buffer.buffers m.buffers);
  m.buffers <- Store_buffer.empty

let flushable m = Store_buffer.flushable m.model m.buffers

let flush m ~pid ~reg =
  match Store_buffer.take m.model m.buffers ~pid ~reg with
  | Ok (v, rest) ->
    apply_store m (reg, v);
    m.buffers <- rest
  | Error reason -> invalid_arg ("Memory.flush: " ^ reason)

let buffers m = Store_buffer.buffers m.buffers

let count m pid =
  if pid < 0 then invalid_arg (Printf.sprintf "Memory: negative process id %d" pid);
  m.total <- m.total + 1;
  if pid >= Array.length m.counts then m.counts <- grow_to_hold m.counts pid ~default:0;
  Array.unsafe_set m.counts pid (Array.unsafe_get m.counts pid + 1)

let apply m ~pid invocation =
  let directive =
    match m.interposer with None -> Proceed | Some f -> f ~pid invocation
  in
  let relaxed = Memory_model.relaxed m.model in
  (match invocation with
  | Op.Move (src, dst) when src = dst -> raise (Self_move { pid; reg = src })
  | _ -> ());
  (* Fences drain the issuing process's buffer before taking effect, so the
     synchronisation repertoire always acts on globally visible state. *)
  if relaxed && Store_buffer.fences invocation then drain m ~pid;
  let response =
    match invocation with
    | Op.Ll r ->
      let reg = register m r in
      Register.link reg pid;
      Op.Value (Register.value reg)
    | Op.Sc (r, v) ->
      let reg = register m r in
      let old = Register.value reg in
      (match directive with
      | Fail_sc ->
        (* Weak LL/SC: the SC fails spuriously.  Nothing changes — in
           particular the Pset keeps [pid]'s link, so a retried SC can still
           succeed. *)
        Op.Flagged (false, old)
      | Proceed ->
        if Register.linked reg pid then begin
          Register.write reg v;
          Op.Flagged (true, old)
        end
        else Op.Flagged (false, old))
    | Op.Validate r ->
      let reg = register m r in
      let v =
        if relaxed then
          match Store_buffer.forwarded m.buffers ~pid r with
          | Some v -> v
          | None -> Register.value reg
        else Register.value reg
      in
      Op.Flagged (Register.linked reg pid, v)
    | Op.Swap (r, v) ->
      let reg = register m r in
      let old = Register.value reg in
      Register.write reg v;
      Op.Value old
    | Op.Move (src, dst) ->
      let sv = Register.value (register m src) in
      Register.write (register m dst) sv;
      Op.Ack
    | Op.Write (r, v) ->
      if relaxed then m.buffers <- Store_buffer.push m.buffers ~pid r v
      else apply_store m (r, v);
      Op.Ack
    | Op.Fence -> Op.Ack
  in
  count m pid;
  if m.log_enabled then m.log <- { pid; invocation; response } :: m.log;
  (match m.tap with
  | None -> ()
  | Some tap ->
    let spurious =
      match (invocation, directive) with Op.Sc _, Fail_sc -> true | _ -> false
    in
    tap ~pid invocation response ~spurious);
  response

let find_reg m r =
  if r < 0 then None
  else if r < dense_regs_limit then
    if r < Array.length m.regs then m.regs.(r) else None
  else Hashtbl.find_opt m.sparse_regs r

let peek m r =
  match find_reg m r with Some reg -> Register.value reg | None -> m.default

let pset m r =
  match find_reg m r with Some reg -> Register.pset reg | None -> Ids.empty

let fold_regs f m acc =
  let acc = ref acc in
  Array.iteri
    (fun r reg -> match reg with Some reg -> acc := f r reg !acc | None -> ())
    m.regs;
  Hashtbl.fold (fun r reg acc -> f r reg acc) m.sparse_regs !acc

let touched m = fold_regs (fun r _ acc -> r :: acc) m [] |> List.sort Int.compare

let snapshot m =
  touched m |> List.map (fun r -> (r, (peek m r, pset m r)))

let largest_value_size m =
  fold_regs (fun _ reg acc -> max acc (Value.size (Register.value reg))) m 0

let ops_of m ~pid =
  if pid >= 0 && pid < Array.length m.counts then m.counts.(pid) else 0

let total_ops m = m.total
let max_ops m = Array.fold_left max 0 m.counts
let events m = List.rev m.log

let pp_event ppf { pid; invocation; response } =
  Format.fprintf ppf "p%d: %a -> %a" pid Op.pp_invocation invocation Op.pp_response response
