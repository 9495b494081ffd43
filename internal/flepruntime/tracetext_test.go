package flepruntime

import (
	"bytes"
	"testing"

	"flep/internal/gpu"
	"flep/internal/sim"
	"flep/internal/trace"
)

// The runtime formats trace details only when a log is attached. These
// goldens pin every runtime and device line of a small HPF preemption,
// spatial and temporal, so the deferred formatting cannot change what
// /v1/trace and flepsim -trace print.
func TestTraceTextPinned(t *testing.T) {
	cases := []struct {
		name    string
		spatial bool
		want    string
	}{
		{"spatial", true, `          0s runtime  submit   low      [ 0, 0) id=1 prio=1 Te=1ms
          0s device   launch   low      [ 0,15) remaining=1200
          0s runtime  dispatch low      [ 0, 0) id=1 sms=[0,15) guest=false
         6µs device   resident low      [ 0,15) remaining=1200
       300µs runtime  submit   tiny     [ 0, 0) id=2 prio=2 Te=26.666µs
       300µs runtime  preempt  low      [ 0, 0) for=tiny sms=5 spatial=true
       300µs device   preempt  low      [ 0, 5) remaining=850
   352.505µs device   drained  low      [ 0, 5) remaining=787
   352.505µs runtime  drained  low      [ 0, 0) spatial remaining=787 freed=[0,5)
   352.505µs device   launch   tiny     [ 0, 5) remaining=40
   352.505µs runtime  dispatch tiny     [ 0, 0) id=2 sms=[0,5) guest=true
   358.505µs device   resident tiny     [ 0, 5) remaining=40
   439.714µs device   complete tiny     [ 0, 5) remaining=0
   439.714µs runtime  complete tiny     [ 0, 0) id=2 turnaround=139.714µs Tw=52.505µs
   439.714µs runtime  expand   low      [ 0, 0) reclaimed guest SMs
   450.714µs device   resident low      [ 0,15) remaining=709
  1.044836ms device   complete low      [ 0,15) remaining=0
  1.044836ms runtime  complete low      [ 0, 0) id=1 turnaround=1.044836ms Tw=0s
`},
		{"temporal", false, `          0s runtime  submit   low      [ 0, 0) id=1 prio=1 Te=1ms
          0s device   launch   low      [ 0,15) remaining=1200
          0s runtime  dispatch low      [ 0, 0) id=1 sms=[0,15) guest=false
         6µs device   resident low      [ 0,15) remaining=1200
       300µs runtime  submit   tiny     [ 0, 0) id=2 prio=2 Te=26.666µs
       300µs runtime  preempt  low      [ 0, 0) for=tiny sms=15 spatial=false
       300µs device   preempt  low      [ 0,15) remaining=850
   352.505µs device   drained  low      [ 0,15) remaining=787
   352.505µs runtime  drained  low      [ 0, 0) temporal remaining=787
   352.505µs device   launch   tiny     [ 0,15) remaining=40
   352.505µs runtime  dispatch tiny     [ 0, 0) id=2 sms=[0,15) guest=false
   358.505µs device   resident tiny     [ 0,15) remaining=40
   429.204µs device   complete tiny     [ 0,15) remaining=0
   429.204µs runtime  complete tiny     [ 0, 0) id=2 turnaround=129.204µs Tw=52.505µs
   429.204µs device   launch   low      [ 0,15) remaining=787
   429.204µs runtime  dispatch low      [ 0, 0) id=1 sms=[0,15) guest=false
   450.204µs device   resident low      [ 0,15) remaining=787
  1.110037ms device   complete low      [ 0,15) remaining=0
  1.110037ms runtime  complete low      [ 0, 0) id=1 turnaround=1.110037ms Tw=76.699µs
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			dev := gpu.New(eng, gpu.DefaultParams())
			log := &trace.Log{}
			dev.Observer = log.DeviceObserver()
			rt := New(dev, Config{Policy: NewHPF(), EnableSpatial: tc.spatial, Log: log})
			if err := rt.Submit(inv("low", 1, 1200, us(100), 2)); err != nil {
				t.Fatal(err)
			}
			eng.Schedule(us(300), func() {
				if err := rt.Submit(inv("tiny", 2, 40, us(80), 1)); err != nil {
					t.Error(err)
				}
			})
			eng.Run()
			var buf bytes.Buffer
			if err := log.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Fatalf("trace text changed:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}
