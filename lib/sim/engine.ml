module Tw = Pim_util.Timer_wheel

(* A handle IS the wheel node; its payload is the callback.  One
   allocation per scheduled event, and cancellation is [Tw.cancel] —
   worst-case O(1) slot removal, no tombstones, so [pending] counts only
   live events.

   Cancellation also swaps the payload for [noop]:
   - it drops the callback (and whatever its closure captures) even if
     the caller retains the handle;
   - it lets a recurring timer's tick detect a cancel performed by its
     own action (the node is unlinked during the tick either way, so
     [linked] cannot distinguish the two). *)
type handle = (unit -> unit) Tw.node

type t = {
  mutable clock : float;
  mutable seq : int;
  queue : (unit -> unit) Tw.t;
}

let noop () = ()

let create () = { clock = 0.; seq = 0; queue = Tw.create () }

let now t = t.clock

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let schedule t ~after action =
  if after < 0. then invalid_arg "Engine.schedule: negative delay";
  Tw.add t.queue ~time:(t.clock +. after) ~seq:(next_seq t) action

let schedule_at t time action =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Tw.add t.queue ~time ~seq:(next_seq t) action

(* The node must be unlinked: it has fired (and is not re-armed yet) or
   was cancelled.  It takes a fresh sequence number, exactly as a new
   [schedule_at] would, so re-arming never changes tie-break order. *)
let rearm_at t hdl time =
  if time < t.clock then invalid_arg "Engine.rearm_at: time in the past";
  Tw.readd hdl ~time ~seq:(next_seq t)

let every t ?start ~interval action =
  if interval <= 0. then invalid_arg "Engine.every: non-positive interval";
  let first = Option.value start ~default:interval in
  if first < 0. then invalid_arg "Engine.every: negative start";
  let node = ref None in
  let rec tick () =
    action ();
    match !node with
    | Some n
      when Tw.value n == tick (* pimlint: allow H2 — cancel swaps the payload; identity is the test *)
      ->
      (* Not cancelled mid-tick: re-arm in place, reusing the node. *)
      rearm_at t n (t.clock +. interval)
    | _ -> ()
  in
  let n = Tw.add t.queue ~time:(t.clock +. first) ~seq:(next_seq t) tick in
  node := Some n;
  n

(* True removal: the event leaves its wheel bucket now, not at its fire
   time, so cancelling N timers is O(N) total and leaks nothing. *)
let cancel hdl =
  Tw.cancel hdl;
  Tw.set_value hdl noop

let run ?until t =
  let limit = Option.value until ~default:infinity in
  Tw.drain_until t.queue ~limit (fun node ->
      let time = Tw.time node in
      if time > t.clock then t.clock <- time;
      Tw.value node ());
  if Float.is_finite limit then t.clock <- max t.clock limit

let pending t = Tw.length t.queue
