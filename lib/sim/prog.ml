module Memory = Rme_memory.Memory
module Op = Rme_memory.Op

type 'a t =
  | Return of 'a
  | Step of Memory.loc * Op.t * (int -> 'a t)

let return x = Return x

let write loc v = Step (loc, Op.Write v, fun _ -> Return ())

module K = struct
  let op loc o k = Step (loc, o, k)

  let read loc k = Step (loc, Op.Read, k)

  let write loc v k = Step (loc, Op.Write v, k)

  let cas loc ~expected ~desired k =
    Step (loc, Op.Cas { expected; desired }, fun old -> k (old = expected))

  let fas loc v k = Step (loc, Op.Fas v, k)

  let faa loc d k = Step (loc, Op.Faa d, k)

  let fai loc k = Step (loc, Op.fai, k)

  let await loc cond k =
    let rec spin = Step (loc, Op.Read, fun v -> if cond v then k v else spin) in
    spin
end
